package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"resemble/internal/telemetry"
)

// Exposition pins: the /metrics family set and the /stats key set are
// part of the daemon's operator contract. The lists below were taken
// before the counters moved into the registry; the only names allowed
// to disappear since are the deleted gob service-checkpoint series.

// deletedFamilies and deletedStatsKeys are the exposition entries the
// gob service-counter checkpoint carried. They are filtered out of the
// observed sets, so these tests pass whether or not the checkpoint
// exists.
var (
	deletedFamilies = []string{
		"service_checkpoint_failures",
		"service_checkpoint_retries",
		"service_checkpoint_writes",
	}
	deletedStatsKeys = []string{
		"checkpoint_failures",
		"checkpoint_retries",
		"checkpoint_writes",
	}
)

// serviceFamiliesCommon is the family set every service exposes, with
// or without a telemetry collector.
var serviceFamiliesCommon = []string{
	"process_uptime_seconds",
	"runtime_gc_cycles",
	"runtime_gc_pause_seconds",
	"runtime_goroutines",
	"runtime_heap_inuse_bytes",
	"service_breaker_state",
	"service_breaker_trips",
	"service_queue_capacity",
	"service_queue_depth",
	"service_ready",
	"service_requests_admitted",
	"service_requests_completed",
	"service_requests_failed",
	"service_requests_rejected",
	"service_requests_shed",
	"service_requests_timeout",
	"service_retry_budget",
	"service_run_checkpoint_failures",
	"service_run_checkpoint_writes",
	"service_runs_masked",
	"service_runs_resume_fallback",
	"service_runs_resumed",
	"service_state",
	"service_workers_panics",
	"service_workers_restarts",
	"service_workers_wedged",
}

var serviceStatsKeys = []string{
	"breaker_trips",
	"breakers",
	"queue_capacity",
	"queue_depth",
	"requests_admitted",
	"requests_completed",
	"requests_failed",
	"requests_rejected",
	"requests_shed",
	"requests_timed_out",
	"resume_fallbacks",
	"run_checkpoint_failures",
	"run_checkpoint_writes",
	"runs_resumed",
	"runs_with_masked_arms",
	"state",
	"tasks_wedged",
	"worker_panics",
	"worker_restarts",
}

// metricFamilies scrapes /metrics and returns the sorted family names
// declared by its # TYPE lines.
func metricFamilies(t *testing.T, addr string) []string {
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
	return without(fams, deletedFamilies)
}

// statsKeys fetches /stats and returns its sorted top-level keys.
func statsKeys(t *testing.T, addr string) []string {
	t.Helper()
	var m map[string]json.RawMessage
	getJSON(t, "http://"+addr+"/stats", &m)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return without(keys, deletedStatsKeys)
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

// without returns xs minus drop, sorted.
func without(xs, drop []string) []string {
	out := xs[:0:0]
	for _, x := range xs {
		if !contains(drop, x) {
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

func diffSets(t *testing.T, what string, got, want []string) {
	t.Helper()
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w] = true
	}
	gotSet := map[string]bool{}
	for _, g := range got {
		gotSet[g] = true
		if !wantSet[g] {
			t.Errorf("%s: unexpected %q", what, g)
		}
	}
	for w := range wantSet {
		if !gotSet[w] {
			t.Errorf("%s: missing %q", what, w)
		}
	}
}

// TestExpositionGolden pins the /metrics family names and the /stats
// key set after one completed request, with telemetry off and on.
func TestExpositionGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tel   bool
		extra []string // families beyond serviceFamiliesCommon
	}{
		{name: "telemetry-off"},
		{name: "telemetry-on", tel: true, extra: telemetryFamilies},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startService(t, func(c *Config) {
				if tc.tel {
					tel, err := telemetry.New(telemetry.Config{})
					if err != nil {
						t.Fatal(err)
					}
					c.Telemetry = tel
				}
			})
			if status, out := post(t, s, Request{Workload: "433.milc", Controller: "resemble-t", Accesses: 2000}); status != http.StatusOK {
				t.Fatalf("run: status %d (%s)", status, out.Error)
			}
			want := append(append([]string(nil), serviceFamiliesCommon...), tc.extra...)
			want = append(want, runtimeMetricFamilies(t)...)
			diffSets(t, "/metrics families", metricFamilies(t, s.Addr()), want)
			diffSets(t, "/stats keys", statsKeys(t, s.Addr()), serviceStatsKeys)
		})
	}
}

// runtimeMetricFamilies lists the runtime/metrics-backed gauges the
// toolchain in use provides (telemetry.UpdateRuntimeMetrics); they are
// the runtime's set, not the service's, so they are derived rather
// than pinned.
func runtimeMetricFamilies(t *testing.T) []string {
	t.Helper()
	reg := telemetry.NewRegistry()
	telemetry.UpdateRuntimeMetrics(reg)
	var fams []string
	for name := range reg.Snapshot().Gauges {
		fams = append(fams, strings.ReplaceAll(name, ".", "_"))
	}
	return fams
}

// TestCounterViewsAgree drives one completed, one 400-rejected, one
// shed and one timed-out request through a single-worker service and
// checks that Stats(), /stats and /metrics report the same value for
// every counter.
func TestCounterViewsAgree(t *testing.T) {
	for _, withTel := range []bool{false, true} {
		name := "telemetry-off"
		if withTel {
			name = "telemetry-on"
		}
		t.Run(name, func(t *testing.T) {
			// The slow handler holds each request in the worker long
			// enough to fill the one-deep queue behind it.
			s := startService(t, func(c *Config) {
				c.Workers = 1
				c.QueueDepth = 1
				c.Chaos = &Chaos{SlowHandler: 300 * time.Millisecond}
				if withTel {
					tel, err := telemetry.New(telemetry.Config{})
					if err != nil {
						t.Fatal(err)
					}
					c.Telemetry = tel
				}
			})
			req := Request{Workload: "433.milc", Controller: "bo", Accesses: 2000}

			// Timed out: the client gives up while the worker stalls.
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { postCancellable(ctx, s, req); close(done) }()
			waitFor(t, "first request in the worker", func() bool {
				st := s.Stats()
				return st.Admitted == 1 && st.QueueDepth == 0
			})
			// Completed: queued behind the stalled request.
			okc := make(chan int, 1)
			go func() {
				body, _ := json.Marshal(req)
				resp, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
				if err != nil {
					okc <- 0
					return
				}
				resp.Body.Close()
				okc <- resp.StatusCode
			}()
			waitFor(t, "second request queued", func() bool { return s.Stats().QueueDepth == 1 })
			// Shed: the queue is full.
			if status, _ := post(t, s, req); status != http.StatusServiceUnavailable {
				t.Fatalf("shed request: status %d, want 503", status)
			}
			cancel()
			<-done
			if status := <-okc; status != http.StatusOK {
				t.Fatalf("queued request: status %d, want 200", status)
			}
			// 400: an unknown workload never reaches admission.
			if status, _ := post(t, s, Request{Workload: "no-such", Controller: "bo"}); status != http.StatusBadRequest {
				t.Fatalf("bad request: status %d, want 400", status)
			}
			waitFor(t, "timed-out request accounted", func() bool { return s.Stats().TimedOut == 1 })

			st := s.Stats()
			if st.Admitted != 2 || st.Completed != 1 || st.Shed != 1 || st.TimedOut != 1 {
				t.Fatalf("stats = admitted %d completed %d shed %d timed out %d, want 2/1/1/1",
					st.Admitted, st.Completed, st.Shed, st.TimedOut)
			}
			var web Stats
			getJSON(t, "http://"+s.Addr()+"/stats", &web)
			prom := scrapeCounters(t, s.Addr())
			for key, fam := range map[string]string{
				"requests_admitted":       "service_requests_admitted_total",
				"requests_completed":      "service_requests_completed_total",
				"requests_shed":           "service_requests_shed_total",
				"requests_rejected":       "service_requests_rejected_total",
				"requests_failed":         "service_requests_failed_total",
				"requests_timed_out":      "service_requests_timeout_total",
				"worker_panics":           "service_workers_panics_total",
				"worker_restarts":         "service_workers_restarts_total",
				"tasks_wedged":            "service_workers_wedged_total",
				"runs_with_masked_arms":   "service_runs_masked_total",
				"run_checkpoint_writes":   "service_run_checkpoint_writes_total",
				"run_checkpoint_failures": "service_run_checkpoint_failures_total",
				"runs_resumed":            "service_runs_resumed_total",
				"resume_fallbacks":        "service_runs_resume_fallback_total",
			} {
				a, b := statsField(t, st, key), statsField(t, web, key)
				c, ok := prom[fam]
				if !ok {
					t.Errorf("/metrics has no %s", fam)
				}
				if a != b || float64(a) != c {
					t.Errorf("%s: Stats() %d, /stats %d, /metrics %v", key, a, b, c)
				}
			}
			for _, arm := range ArmNames() {
				fam := `service_breaker_trips_total{arm="` + arm + `"}`
				if float64(st.BreakerTrips[arm]) != prom[fam] || st.BreakerTrips[arm] != web.BreakerTrips[arm] {
					t.Errorf("breaker trips %s: Stats() %d, /stats %d, /metrics %v",
						arm, st.BreakerTrips[arm], web.BreakerTrips[arm], prom[fam])
				}
			}
		})
	}
}

// statsField reads one counter of st by its JSON key.
func statsField(t *testing.T, st Stats, key string) uint64 {
	t.Helper()
	b, _ := json.Marshal(st)
	var m map[string]json.RawMessage
	_ = json.Unmarshal(b, &m)
	var v uint64
	if err := json.Unmarshal(m[key], &v); err != nil {
		t.Fatalf("stats key %q: %v", key, err)
	}
	return v
}

// scrapeCounters returns every counter sample of /metrics keyed by its
// name plus sorted label set, e.g. service_breaker_trips_total{arm="bo"}.
func scrapeCounters(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, smp := range samples {
		if !strings.HasSuffix(smp.Name, "_total") {
			continue
		}
		key := smp.Name
		if arm, ok := smp.Labels["arm"]; ok {
			key += `{arm="` + arm + `"}`
		}
		out[key] = smp.Value
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// telemetryFamilies is the extra family set a telemetry collector
// brings after one resemble-t run: the simulator, controller and
// request-latency instruments.
var telemetryFamilies = []string{
	"core_mask_masked",
	"core_mask_reprobed",
	"core_tabular_td_error",
	"core_tabular_unique_states",
	"core_tabular_updates",
	"service_request_latency_ms",
	"sim_dram_mshr_occupancy",
	"sim_dram_mshr_stalls",
	"sim_dram_requests",
	"sim_llc_hits",
	"sim_llc_late_hits",
	"sim_llc_misses",
	"sim_llc_useful_prefetches",
	"sim_prefetch_dropped",
	"sim_prefetch_duplicates",
	"sim_prefetch_issued",
}
