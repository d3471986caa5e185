package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"resemble/internal/telemetry"
)

// Exposition pins for the front door: the /metrics family set and the
// /stats key set are part of the operator contract.

// deletedFrontFamilies are the snapshot-time aliases of
// cluster_hedge_wins and cluster_retries_denied, retired in favour of
// the registry's own names. They are filtered out of the observed set,
// so the pin holds whether or not the aliases exist.
var deletedFrontFamilies = []string{
	"cluster_hedge_won",
	"cluster_retry_budget_exhausted",
}

var frontFamilies = []string{
	"cluster_backend_failovers",
	"cluster_backend_hedges",
	"cluster_backend_probe_failures",
	"cluster_backend_queue_depth",
	"cluster_backend_retries",
	"cluster_backend_served",
	"cluster_backend_state",
	"cluster_backend_transitions",
	"cluster_backend_ejections",
	"cluster_backends_healthy",
	"cluster_failover_resumes",
	"cluster_failovers",
	"cluster_hedge_cancelled",
	"cluster_hedge_lost",
	"cluster_hedge_wins",
	"cluster_hedges",
	"cluster_inflight",
	"cluster_inflight_max",
	"cluster_merge_pending",
	"cluster_ready",
	"cluster_requests_admitted",
	"cluster_requests_completed",
	"cluster_requests_failed",
	"cluster_requests_rejected",
	"cluster_requests_shed",
	"cluster_retries_denied",
	"cluster_retry_budget",
	"cluster_state",
	"process_uptime_seconds",
	"runtime_gc_cycles",
	"runtime_gc_pause_seconds",
	"runtime_goroutines",
	"runtime_heap_inuse_bytes",
}

var frontStatsKeys = []string{
	"backends",
	"failovers",
	"hedge_cancelled",
	"hedge_lost",
	"hedge_wins",
	"hedges",
	"merge_pending",
	"requests_admitted",
	"requests_completed",
	"requests_failed",
	"requests_rejected",
	"requests_shed",
	"resumed_retries",
	"retries_denied",
	"retry_tokens",
	"state",
}

func scrapeFamilies(t *testing.T, addr string) []string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fams []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams = append(fams, f[2])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

func runtimeMetricFamilies() []string {
	reg := telemetry.NewRegistry()
	telemetry.UpdateRuntimeMetrics(reg)
	var fams []string
	for name := range reg.Snapshot().Gauges {
		fams = append(fams, strings.ReplaceAll(name, ".", "_"))
	}
	return fams
}

func assertSameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	set := func(xs []string) []string {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		out := make([]string, 0, len(m))
		for x := range m {
			out = append(out, x)
		}
		sort.Strings(out)
		return out
	}
	g, w := set(got), set(want)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("%s:\n got  %v\n want %v", what, g, w)
	}
}

// TestFrontExpositionGolden pins the front door's /metrics family names
// and /stats keys after one routed request, with telemetry off and on.
func TestFrontExpositionGolden(t *testing.T) {
	for _, withTel := range []bool{false, true} {
		name := "telemetry-off"
		if withTel {
			name = "telemetry-on"
		}
		t.Run(name, func(t *testing.T) {
			f, _ := testFleet(t, 2, func(c *Config) {
				if withTel {
					c.Telemetry = newKeepCollector(t)
				}
			})
			if status, _, out := postRun(t, f.Addr(), runReq("433.milc", 3)); status != http.StatusOK {
				t.Fatalf("request failed: %d (%s)", status, out.Error)
			}
			want := append(append([]string(nil), frontFamilies...), runtimeMetricFamilies()...)
			var got []string
			for _, fam := range scrapeFamilies(t, f.Addr()) {
				if !slices.Contains(deletedFrontFamilies, fam) {
					got = append(got, fam)
				}
			}
			assertSameSet(t, "/metrics families", got, want)
			var m map[string]json.RawMessage
			getJSON(t, "http://"+f.Addr()+"/stats", &m)
			var keys []string
			for k := range m {
				keys = append(keys, k)
			}
			assertSameSet(t, "/stats keys", keys, frontStatsKeys)
		})
	}
}

// TestFrontCounterViewsAgree drives one completed, one 400-rejected,
// one shed and one timed-out request through a one-slot front door and
// checks that Stats(), /stats and /metrics agree on every counter.
func TestFrontCounterViewsAgree(t *testing.T) {
	for _, withTel := range []bool{false, true} {
		name := "telemetry-off"
		if withTel {
			name = "telemetry-on"
		}
		t.Run(name, func(t *testing.T) {
			f, fakes := testFleet(t, 1, func(c *Config) {
				c.MaxInFlight = 1
				c.RequestTimeout = 300 * time.Millisecond
				if withTel {
					c.Telemetry = newKeepCollector(t)
				}
			})
			if status, _, out := postRun(t, f.Addr(), runReq("433.milc", 1)); status != http.StatusOK {
				t.Fatalf("completed request: %d (%s)", status, out.Error)
			}
			resp, err := http.Post("http://"+f.Addr()+"/v1/run", "application/json", bytes.NewReader([]byte("{")))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
			}

			// Timed out: the backend stalls past the request deadline and
			// holds the only in-flight slot, so a second request is shed.
			fakes[0].delay.Store(int64(5 * time.Second))
			slow := make(chan int, 1)
			go func() {
				body, _ := json.Marshal(runReq("433.milc", 2))
				req, _ := http.NewRequestWithContext(context.Background(), http.MethodPost,
					"http://"+f.Addr()+"/v1/run", bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					slow <- 0
					return
				}
				resp.Body.Close()
				slow <- resp.StatusCode
			}()
			deadline := time.Now().Add(5 * time.Second)
			for f.Stats().Admitted < 2 {
				if time.Now().After(deadline) {
					t.Fatal("slow request never admitted")
				}
				time.Sleep(2 * time.Millisecond)
			}
			if status, _, _ := postRun(t, f.Addr(), runReq("433.milc", 3)); status != http.StatusServiceUnavailable {
				t.Fatalf("shed request: status %d, want 503", status)
			}
			if status := <-slow; status != http.StatusGatewayTimeout {
				t.Fatalf("slow request: status %d, want 504", status)
			}
			fakes[0].delay.Store(0)

			st := f.Stats()
			if st.Admitted != 2 || st.Completed != 1 || st.Failed != 1 || st.Shed != 1 {
				t.Fatalf("stats = admitted %d completed %d failed %d shed %d, want 2/1/1/1",
					st.Admitted, st.Completed, st.Failed, st.Shed)
			}
			var web map[string]json.RawMessage
			getJSON(t, "http://"+f.Addr()+"/stats", &web)
			b, _ := json.Marshal(st)
			var mine map[string]json.RawMessage
			_ = json.Unmarshal(b, &mine)

			resp, err = http.Get("http://" + f.Addr() + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			samples, err := telemetry.ParsePrometheus(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			prom := map[string]float64{}
			for _, smp := range samples {
				prom[smp.Name] = smp.Value
			}
			for key, fams := range map[string][]string{
				"requests_admitted":  {"cluster_requests_admitted_total"},
				"requests_completed": {"cluster_requests_completed_total"},
				"requests_failed":    {"cluster_requests_failed_total"},
				"requests_shed":      {"cluster_requests_shed_total"},
				"requests_rejected":  {"cluster_requests_rejected_total"},
				"failovers":          {"cluster_failovers_total"},
				"hedges":             {"cluster_hedges_total"},
				"hedge_wins":         {"cluster_hedge_wins_total"},
				"hedge_lost":         {"cluster_hedge_lost_total"},
				"hedge_cancelled":    {"cluster_hedge_cancelled_total"},
				"retries_denied":     {"cluster_retries_denied_total"},
				"resumed_retries":    {"cluster_failover_resumes_total"},
			} {
				var a, b uint64
				_ = json.Unmarshal(mine[key], &a)
				_ = json.Unmarshal(web[key], &b)
				if a != b {
					t.Errorf("%s: Stats() %d, /stats %d", key, a, b)
				}
				for _, fam := range fams {
					if v, ok := prom[fam]; !ok || v != float64(a) {
						t.Errorf("%s: Stats() %d, /metrics %s %v (present %v)", key, a, fam, v, ok)
					}
				}
			}
		})
	}
}
