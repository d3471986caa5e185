package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"resemble/internal/service"
	"resemble/internal/telemetry"
)

// startTracedBackend starts a real resembled engine with its own
// collector so it ships span trees back to the front door.
func startTracedBackend(t *testing.T, workers int) *service.Service {
	t.Helper()
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := service.New(service.Config{
		Workers:        workers,
		QueueDepth:     8,
		RequestTimeout: 30 * time.Second,
		DrainTimeout:   10 * time.Second,
		Telemetry:      tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// tracedFleet builds a front door with telemetry over real backends.
func tracedFleet(t *testing.T, workers, backends int, mut func(*Config)) (*Front, *telemetry.Collector) {
	t.Helper()
	addrs := make([]string, backends)
	for i := range addrs {
		addrs[i] = startTracedBackend(t, workers).Addr()
	}
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Backends:       addrs,
		RequestTimeout: 30 * time.Second,
		DrainTimeout:   5 * time.Second,
		Probe:          ProbeConfig{Interval: 20 * time.Millisecond},
		Telemetry:      tel,
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f, tel
}

// waitForSpans polls until the collector holds at least want spans
// (the front's request span ends in a deferred call that can race the
// client seeing the response).
func waitForSpans(t *testing.T, tel *telemetry.Collector, want int) []telemetry.SpanRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := tel.Spans()
		if len(spans) >= want {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector has %d spans, want at least %d", len(spans), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFrontStitchedTrace: one request through the front door yields a
// single cross-process trace — front spans on the "front" process
// track, backend spans on a per-backend track, every span reachable
// from the front's request root, and a Chrome export that validates.
func TestFrontStitchedTrace(t *testing.T) {
	f, tel := tracedFleet(t, 2, 2, nil)
	req := runReq("433.milc", 3)
	req.Accesses = 2000
	if status, _, out := postRun(t, f.Addr(), req); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}
	// front: request + attempt; backend: request, admission,
	// worker.serve and the sim tree under it.
	spans := waitForSpans(t, tel, 6)

	ids := map[telemetry.SpanID]bool{}
	byName := map[string]telemetry.SpanRecord{}
	procs := map[string]int{}
	for _, sp := range spans {
		ids[sp.ID] = true
		byName[sp.Name] = sp
		procs[sp.Proc]++
	}
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %q has dangling parent %016x", sp.Name, uint64(sp.Parent))
		}
	}
	root, ok := byName["request"]
	if !ok || byName["attempt"].ID == 0 {
		t.Fatalf("missing front request/attempt spans in %v", procs)
	}
	if root.Track != "freq:0000" {
		// Two "request" spans exist (front + backend); resolve the front one.
		for _, sp := range spans {
			if sp.Name == "request" && sp.Parent == 0 {
				root = sp
			}
		}
	}
	if root.Parent != 0 || root.Proc != "front" {
		t.Fatalf("front request root = %+v, want parentless span on proc front", root)
	}
	if att := byName["attempt"]; att.Parent != root.ID || att.Proc != "front" {
		t.Fatalf("attempt span = %+v, want child of request on proc front", att)
	}
	if procs["front"] < 2 {
		t.Errorf("front proc has %d spans, want >= 2 (got %v)", procs["front"], procs)
	}
	backendSpans := 0
	for p, n := range procs {
		if strings.HasPrefix(p, "backend ") {
			backendSpans += n
		}
	}
	if backendSpans < 4 {
		t.Errorf("backend spans %d, want >= 4 (request/admission/worker.serve/sim tree): %v", backendSpans, procs)
	}
	for _, want := range []string{"admission", "worker.serve", "sim.run"} {
		sp, ok := byName[want]
		if !ok {
			t.Errorf("stitched trace missing backend span %q", want)
			continue
		}
		if !strings.HasPrefix(sp.Proc, "backend ") {
			t.Errorf("span %q on proc %q, want a backend proc", want, sp.Proc)
		}
	}

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("stitched trace fails validation: %v", err)
	}
	if !strings.Contains(buf.String(), `"front"`) || !strings.Contains(buf.String(), `"backend `) {
		t.Fatal("chrome export missing process_name metadata for front/backend tracks")
	}
}

// stitchedSpanKeys runs an identical serial request sequence through a
// fresh fleet and returns the identity keys of every stitched span.
// Proc and timestamps are excluded: backend ports are ephemeral and
// wall time is not part of span identity.
func stitchedSpanKeys(t *testing.T, workers int) map[string]int {
	t.Helper()
	f, tel := tracedFleet(t, workers, 2, nil)
	want := 0
	for i := 0; i < 3; i++ {
		req := runReq("433.milc", int64(i))
		req.Accesses = 2000
		if status, _, out := postRun(t, f.Addr(), req); status != http.StatusOK {
			t.Fatalf("workers=%d request %d: status %d (%s)", workers, i, status, out.Error)
		}
		want += 6
	}
	keys := map[string]int{}
	for _, sp := range waitForSpans(t, tel, want) {
		keys[fmt.Sprintf("%016x %016x %s %s", uint64(sp.ID), uint64(sp.Parent), sp.Track, sp.Name)]++
	}
	return keys
}

// TestStitchedSpanTreeEqualAcrossWorkerCounts extends the span-tree
// determinism contract across process boundaries: a serial request
// sequence produces the identical stitched span ID tree whether the
// backends run 1 worker or 4, because every backend span ID derives
// from the front-minted attempt ref, not from worker scheduling.
func TestStitchedSpanTreeEqualAcrossWorkerCounts(t *testing.T) {
	serial := stitchedSpanKeys(t, 1)
	pooled := stitchedSpanKeys(t, 4)
	for k, n := range serial {
		if pooled[k] != n {
			t.Errorf("span %s: %d with workers=1, %d with workers=4", k, n, pooled[k])
		}
	}
	for k, n := range pooled {
		if serial[k] != n {
			t.Errorf("span %s: %d with workers=4, %d with workers=1", k, n, serial[k])
		}
	}
	if len(serial) == 0 {
		t.Fatal("no spans collected")
	}
}

// TestFrontHedgeOutcomeCounters: a winning hedge and a cancelled hedge
// each resolve into exactly one outcome counter, and the outcome
// triple reaches /metrics as cluster_hedge_{wins,lost,cancelled}_total.
func TestFrontHedgeOutcomeCounters(t *testing.T) {
	t.Run("won", func(t *testing.T) {
		f, fakes := testFleet(t, 3, func(c *Config) { c.HedgeAfter = 25 * time.Millisecond })
		req := runReq("433.milc", 19)
		seq := f.Ring().Sequence(RouteKey(req))
		fakeByAddr(fakes, seq[0]).delay.Store(int64(2 * time.Second))
		if status, _, out := postRun(t, f.Addr(), req); status != http.StatusOK {
			t.Fatalf("status %d (%s)", status, out.Error)
		}
		st := f.Stats()
		if st.Hedges != 1 || st.HedgeWins != 1 || st.HedgeLost != 0 {
			t.Fatalf("stats = %+v, want exactly 1 winning hedge", st)
		}
		text := scrapeMetrics(t, f)
		for _, want := range []string{
			"cluster_hedge_wins_total 1",
			"cluster_hedge_lost_total 0",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("/metrics missing %q in:\n%s", want, text)
			}
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		f, fakes := testFleet(t, 3, func(c *Config) { c.HedgeAfter = 25 * time.Millisecond })
		req := runReq("433.milc", 19)
		seq := f.Ring().Sequence(RouteKey(req))
		// Primary answers late but first; the hedge stalls long enough to
		// be aborted by the winner's cancel.
		fakeByAddr(fakes, seq[0]).delay.Store(int64(150 * time.Millisecond))
		fakeByAddr(fakes, seq[1]).delay.Store(int64(10 * time.Second))
		if status, _, out := postRun(t, f.Addr(), req); status != http.StatusOK {
			t.Fatalf("status %d (%s)", status, out.Error)
		}
		// The loser is accounted by the background reaper.
		deadline := time.Now().Add(5 * time.Second)
		for f.Stats().HedgeCancelled != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("stats = %+v, want 1 cancelled hedge", f.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
		st := f.Stats()
		if st.Hedges != 1 || st.HedgeWins != 0 || st.HedgeLost != 0 {
			t.Fatalf("stats = %+v, want 1 hedge resolved as cancelled only", st)
		}
		if text := scrapeMetrics(t, f); !strings.Contains(text, "cluster_hedge_cancelled_total 1") {
			t.Fatalf("/metrics missing cluster_hedge_cancelled_total 1 in:\n%s", text)
		}
	})
}

func scrapeMetrics(t *testing.T, f *Front) string {
	t.Helper()
	resp, err := http.Get("http://" + f.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

// TestFrontMetricsHistory: the front door samples its fleet exposition
// into /metrics/history.
func TestFrontMetricsHistory(t *testing.T) {
	tel := newKeepCollector(t)
	f, _ := testFleet(t, 2, func(c *Config) {
		c.Telemetry = tel
		c.HistoryEvery = 10 * time.Millisecond
		c.HistorySamples = 32
	})
	if status, _, out := postRun(t, f.Addr(), runReq("433.milc", 5)); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	var hist struct {
		PeriodMS int64                     `json:"period_ms"`
		Capacity int                       `json:"capacity"`
		Count    int                       `json:"count"`
		Samples  []telemetry.HistorySample `json:"samples"`
	}
	for {
		resp, err := http.Get("http://" + f.Addr() + "/metrics/history")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&hist)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hist.Count >= 3 && hist.Samples[hist.Count-1].Counters["cluster.requests.completed"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front history never filled: %+v", hist)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if hist.PeriodMS != 10 || hist.Capacity != 32 {
		t.Fatalf("period_ms=%d capacity=%d, want 10/32", hist.PeriodMS, hist.Capacity)
	}
	if g := hist.Samples[hist.Count-1].Gauges["cluster.backends.healthy"]; g != 2 {
		t.Fatalf("last sample backends.healthy = %v, want 2", g)
	}
}

// TestFrontFleetIncidentCapture: a manual capture assembles a fleet
// bundle from every backend's recorder ring; a dead backend is
// recorded as an error instead of silently missing.
func TestFrontFleetIncidentCapture(t *testing.T) {
	tel := newKeepCollector(t)
	f, fakes := testFleet(t, 2, func(c *Config) { c.Telemetry = tel })
	resp, err := http.Post("http://"+f.Addr()+"/debug/incidents/capture", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var bundle FleetIncident
	err = json.NewDecoder(resp.Body).Decode(&bundle)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("capture: status %d, err %v", resp.StatusCode, err)
	}
	if bundle.Incident.Trigger != "manual: POST /debug/incidents/capture" {
		t.Fatalf("bundle trigger %q", bundle.Incident.Trigger)
	}
	if len(bundle.Backends) != 2 {
		t.Fatalf("bundle has %d backends, want 2", len(bundle.Backends))
	}
	for addr, br := range bundle.Backends {
		if br.Error != "" || br.Snapshot == nil || br.Snapshot.Process != "fake "+addr {
			t.Fatalf("backend %s ring = %+v, want its recorder snapshot", addr, br)
		}
	}

	// Kill one backend: the next capture records the pull failure.
	fakes[0].srv.Close()
	resp, err = http.Post("http://"+f.Addr()+"/debug/incidents/capture", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&bundle)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if br := bundle.Backends[fakes[0].addr]; br.Error == "" || br.Snapshot != nil {
		t.Fatalf("dead backend ring = %+v, want an error", br)
	}
	if br := bundle.Backends[fakes[1].addr]; br.Error != "" || br.Snapshot == nil {
		t.Fatalf("live backend ring = %+v, want a snapshot", br)
	}

	var list struct {
		Count int `json:"count"`
	}
	resp, err = http.Get("http://" + f.Addr() + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || list.Count != 2 {
		t.Fatalf("incident list count = %d (err %v), want 2", list.Count, err)
	}
}

// TestFrontFailoverTriggersFleetBundle: an automatic failover trigger
// assembles a fleet bundle in the background with trigger=failover.
func TestFrontFailoverTriggersFleetBundle(t *testing.T) {
	tel := newKeepCollector(t)
	f, fakes := testFleet(t, 3, func(c *Config) { c.Telemetry = tel })
	req := runReq("433.milc", 11)
	seq := f.Ring().Sequence(RouteKey(req))
	fakeByAddr(fakes, seq[0]).fail.Store(http.StatusInternalServerError)
	if status, _, out := postRun(t, f.Addr(), req); status != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 via failover", status, out.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var found *FleetIncident
		for _, b := range f.FleetIncidents() {
			if b.Incident.Trigger == "failover" {
				found = &b
				break
			}
		}
		if found != nil {
			if len(found.Backends) != 3 {
				t.Fatalf("failover bundle covers %d backends, want 3", len(found.Backends))
			}
			if len(found.Incident.Events) == 0 {
				t.Fatal("failover incident carries no breadcrumb events")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no failover fleet bundle assembled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFrontIncidentCaptureDisabled: without telemetry the capture
// endpoint refuses cleanly.
func TestFrontIncidentCaptureDisabled(t *testing.T) {
	f, _ := testFleet(t, 1, nil)
	resp, err := http.Post("http://"+f.Addr()+"/debug/incidents/capture", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("capture without telemetry: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get("http://" + f.Addr() + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/incidents without telemetry: %d, want 200", resp.StatusCode)
	}
}

// TestFrontIncidentCaptureRejectsBadCPUWindow: the shared capture
// endpoint validates cpu_ms on the front door as on a backend.
func TestFrontIncidentCaptureRejectsBadCPUWindow(t *testing.T) {
	f, _ := testFleet(t, 1, func(c *Config) { c.Telemetry = newKeepCollector(t) })
	for _, q := range []string{"?cpu_ms=-1", "?cpu_ms=x"} {
		resp, err := http.Post("http://"+f.Addr()+"/debug/incidents/capture"+q, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("capture%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}
