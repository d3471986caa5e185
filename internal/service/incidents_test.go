package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"resemble/internal/pprofparse"
	"resemble/internal/telemetry"
)

// postWithTraceParent fires one request carrying an inbound trace
// context header, as the cluster front door does.
func postWithTraceParent(t *testing.T, s *Service, req Request, ref telemetry.SpanRef) (int, Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if v := telemetry.FormatSpanRef(ref); v != "" {
		hreq.Header.Set(telemetry.TraceParentHeader, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// TestInboundTraceContextShipsSpans: a request carrying a trace-parent
// header and return_spans gets its whole span tree back, parented
// under the inbound ref — the backend half of cross-process stitching.
func TestInboundTraceContextShipsSpans(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	ref := telemetry.SpanRef{ID: 0xabcdef0123456789, Track: "freq:0007"}
	status, out := postWithTraceParent(t, s,
		Request{Workload: "433.milc", Controller: "resemble-t", ReturnSpans: true}, ref)
	if status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}
	if len(out.Spans) == 0 {
		t.Fatal("no spans shipped")
	}
	byName := map[string]telemetry.SpanRecord{}
	ids := map[telemetry.SpanID]bool{ref.ID: true}
	for _, sp := range out.Spans {
		byName[sp.Name] = sp
		ids[sp.ID] = true
	}
	for _, want := range []string{"request", "admission", "worker.serve", "sim.run"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("shipped spans missing %q", want)
		}
	}
	reqSpan := byName["request"]
	if reqSpan.Parent != ref.ID {
		t.Errorf("request span parent %016x, want the inbound ref %016x",
			uint64(reqSpan.Parent), uint64(ref.ID))
	}
	if reqSpan.Track != ref.Track {
		t.Errorf("request span track %q, want the inbound track %q", reqSpan.Track, ref.Track)
	}
	for _, sp := range out.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %q has dangling parent %016x", sp.Name, uint64(sp.Parent))
		}
	}

	// Without return_spans the response stays span-free (and the
	// header alone must not bloat it).
	if status, out := postWithTraceParent(t, s,
		Request{Workload: "433.milc", Controller: "resemble-t"}, ref); status != http.StatusOK {
		t.Fatalf("second run: status %d", status)
	} else if len(out.Spans) != 0 {
		t.Fatalf("spans shipped without return_spans: %d", len(out.Spans))
	}
}

// TestMetricsHistoryEndpoint: the sampler fills the ring and
// /metrics/history serves it with its retention parameters.
func TestMetricsHistoryEndpoint(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Telemetry = tel
		c.HistoryEvery = 10 * time.Millisecond
		c.HistorySamples = 64
	})
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "bo"}); status != http.StatusOK {
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
		resp, err := http.Get("http://" + s.Addr() + "/metrics/history")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&hist)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hist.Count >= 3 && hist.Samples[hist.Count-1].Counters["service.requests.admitted"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never filled: %+v", hist)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if hist.PeriodMS != 10 || hist.Capacity != 64 {
		t.Fatalf("period_ms=%d capacity=%d, want 10/64", hist.PeriodMS, hist.Capacity)
	}
	last := hist.Samples[hist.Count-1]
	if last.Gauges["service.queue.capacity"] != 8 {
		t.Errorf("sample gauges missing queue capacity: %v", last.Gauges)
	}
	if last.TMS < hist.Samples[0].TMS {
		t.Error("samples not oldest-first")
	}
}

// TestIncidentEndpoints: manual capture produces a bundle carrying the
// ring, spans and history; /debug/incidents and /debug/flightrec agree.
func TestIncidentEndpoints(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Telemetry = tel
		c.HistoryEvery = 10 * time.Millisecond
	})
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "bo"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}
	time.Sleep(30 * time.Millisecond) // a couple of history ticks

	resp, err := http.Post("http://"+s.Addr()+"/debug/incidents/capture", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var inc telemetry.Incident
	if err := json.NewDecoder(resp.Body).Decode(&inc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capture: status %d", resp.StatusCode)
	}
	if inc.Trigger != "manual: POST /debug/incidents/capture" || inc.Seq == 0 {
		t.Fatalf("capture incident = %+v", inc)
	}
	if inc.Process != "resembled "+s.Addr() {
		t.Errorf("incident process %q, want %q", inc.Process, "resembled "+s.Addr())
	}
	if len(inc.Spans) == 0 {
		t.Error("incident carries no spans")
	}
	if len(inc.History) == 0 {
		t.Error("incident carries no metrics history")
	}

	var list struct {
		Count     int                  `json:"count"`
		Incidents []telemetry.Incident `json:"incidents"`
	}
	resp, err = http.Get("http://" + s.Addr() + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Incidents[0].Seq != inc.Seq {
		t.Fatalf("incident list = %+v, want the captured bundle", list)
	}

	var snap telemetry.RecorderSnapshot
	resp, err = http.Get("http://" + s.Addr() + "/debug/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Process != inc.Process || len(snap.History) == 0 {
		t.Fatalf("flightrec snapshot = %+v", snap)
	}
	// Snapshot is non-mutating: no new incident appeared.
	resp, _ = http.Get("http://" + s.Addr() + "/debug/incidents")
	_ = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if list.Count != 1 {
		t.Fatalf("flightrec snapshot minted an incident: count %d", list.Count)
	}
}

// TestIncidentEndpointsDisabledWithoutTelemetry: with no collector the
// recorder endpoints answer cleanly instead of 500ing.
func TestIncidentEndpointsDisabledWithoutTelemetry(t *testing.T) {
	s := startService(t, nil)
	resp, err := http.Get("http://" + s.Addr() + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/incidents without telemetry: %d", resp.StatusCode)
	}
	resp, err = http.Post("http://"+s.Addr()+"/debug/incidents/capture", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("capture without telemetry: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get("http://" + s.Addr() + "/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/history without telemetry: %d", resp.StatusCode)
	}
}

// captureIncident posts a manual incident capture with the given query
// and decodes the bundle.
func captureIncident(t *testing.T, s *Service, query string) (int, telemetry.Incident) {
	t.Helper()
	resp, err := http.Post("http://"+s.Addr()+"/debug/incidents/capture"+query, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var inc telemetry.Incident
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&inc); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, inc
}

// TestIncidentCaptureWritesProfiles: with ProfileDir set, a manual
// capture's bundle carries a CPU and a heap profile on disk that
// pprofparse decodes, plus the decoded top alloc_space symbols, and
// /debug/incidents lists the same evidence.
func TestIncidentCaptureWritesProfiles(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := startService(t, func(c *Config) {
		c.Telemetry = tel
		c.ProfileDir = dir
	})
	status, inc := captureIncident(t, s, "?cpu_ms=20")
	if status != http.StatusOK {
		t.Fatalf("capture: status %d", status)
	}
	prof := inc.Profile
	if prof == nil || prof.Error != "" {
		t.Fatalf("bundle profile = %+v, want evidence without error", prof)
	}
	if filepath.Dir(prof.Dir) != dir || filepath.Base(prof.Dir) != "incident-0001" {
		t.Errorf("profile dir %q, want %s/incident-0001", prof.Dir, dir)
	}
	if len(prof.Files) != 2 || prof.Files[0] != "cpu.pprof" || prof.Files[1] != "heap.pprof" {
		t.Fatalf("profile files %v, want [cpu.pprof heap.pprof]", prof.Files)
	}
	for _, f := range prof.Files {
		if _, err := pprofparse.ParseFile(filepath.Join(prof.Dir, f)); err != nil {
			t.Errorf("%s does not decode: %v", f, err)
		}
	}
	if len(prof.TopAllocSpace) == 0 {
		t.Error("bundle has no decoded top alloc_space symbols")
	}

	var list struct {
		Incidents []telemetry.Incident `json:"incidents"`
	}
	getJSON(t, "http://"+s.Addr()+"/debug/incidents", &list)
	if len(list.Incidents) != 1 || list.Incidents[0].Profile == nil || list.Incidents[0].Profile.Dir != prof.Dir {
		t.Fatalf("/debug/incidents = %+v, want the profiled bundle", list.Incidents)
	}
}

// TestIncidentCaptureRejectsBadCPUWindow: a negative or malformed
// cpu_ms is a client error, not a default window.
func TestIncidentCaptureRejectsBadCPUWindow(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Telemetry = tel
		c.ProfileDir = t.TempDir()
	})
	for _, q := range []string{"?cpu_ms=-1", "?cpu_ms=x"} {
		if status, _ := captureIncident(t, s, q); status != http.StatusBadRequest {
			t.Errorf("capture%s: status %d, want 400", q, status)
		}
	}
	if got := len(s.recorder.Incidents()); got != 0 {
		t.Errorf("rejected captures retained %d incidents", got)
	}
}

// TestIncidentProfileDirRequiresTelemetry: profiles ride in incident
// bundles, so a ProfileDir without a collector is a configuration error.
func TestIncidentProfileDirRequiresTelemetry(t *testing.T) {
	if _, err := New(Config{ProfileDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted ProfileDir without Telemetry")
	}
}
