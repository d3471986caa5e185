package service

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"resemble/internal/telemetry"
)

// TestMetricsExposition: /metrics serves valid OpenMetrics text with
// the service's counters, gauges, per-arm breaker families and
// runtime health gauges, under the declared Content-Type.
func TestMetricsExposition(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "resemble-t"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}

	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.PromContentType)
	}
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("/metrics fails the exposition grammar: %v", err)
	}

	byName := map[string]float64{}
	arms := map[string]bool{}
	for _, smp := range samples {
		byName[smp.Name] = smp.Value
		if smp.Name == "service_breaker_state" {
			arms[smp.Labels["arm"]] = true
		}
	}
	if byName["service_requests_admitted_total"] < 1 {
		t.Errorf("admitted counter = %v, want >= 1", byName["service_requests_admitted_total"])
	}
	if byName["service_requests_completed_total"] < 1 {
		t.Errorf("completed counter = %v, want >= 1", byName["service_requests_completed_total"])
	}
	if byName["service_ready"] != 1 {
		t.Errorf("service_ready = %v, want 1 on an idle ready service", byName["service_ready"])
	}
	if byName["runtime_goroutines"] < 1 {
		t.Errorf("runtime_goroutines missing from exposition")
	}
	if byName["process_uptime_seconds"] <= 0 {
		t.Errorf("process_uptime_seconds = %v, want > 0", byName["process_uptime_seconds"])
	}
	if !arms["bo"] || !arms["spp"] {
		t.Errorf("per-arm breaker families missing arms: got %v", arms)
	}
	if _, ok := byName["service_queue_capacity"]; !ok {
		t.Error("queue capacity gauge missing")
	}
}

// TestExplainEndpoint: with explain sampling on, /v1/explain returns
// the sampled decision records and every record's chosen arm is a
// valid arm of the run's controller.
func TestExplainEndpoint(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{ExplainSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "resemble-t"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}

	resp, err := http.Get("http://" + s.Addr() + "/v1/explain?n=25")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		SampleRate int                  `json:"sample_rate"`
		Count      int                  `json:"count"`
		Decisions  []telemetry.Decision `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.SampleRate != 1 {
		t.Errorf("sample_rate = %d, want 1", out.SampleRate)
	}
	if out.Count == 0 || len(out.Decisions) == 0 {
		t.Fatal("no decisions surfaced after an RL run with sampling on")
	}
	if out.Count > 25 {
		t.Errorf("count %d exceeds requested bound 25", out.Count)
	}
	for _, d := range out.Decisions {
		if d.Action < 0 || d.Action >= len(d.Q) {
			t.Errorf("decision %d: action %d outside its Q vector (%d)", d.Seq, d.Action, len(d.Q))
		}
		if !d.Resolved {
			t.Errorf("decision %d: unresolved record surfaced", d.Seq)
		}
	}

	// Bad n values are rejected, not clamped silently.
	if code := getStatus(t, s, "/v1/explain?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
}

// TestExplainEndpointDisabled: without telemetry the endpoint answers
// an empty, well-formed payload instead of erroring.
func TestExplainEndpointDisabled(t *testing.T) {
	s := startService(t, nil)
	resp, err := http.Get("http://" + s.Addr() + "/v1/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var out struct {
		Count     int                  `json:"count"`
		Decisions []telemetry.Decision `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 0 || out.Decisions == nil {
		t.Errorf("disabled explain: count=%d decisions=%v, want 0 and empty array", out.Count, out.Decisions)
	}
}

// TestMetricsWithoutTelemetry: /metrics works with no collector —
// service counters and runtime gauges still expose and parse.
func TestMetricsWithoutTelemetry(t *testing.T) {
	s := startService(t, nil)
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("/metrics without telemetry fails grammar: %v", err)
	}
	found := false
	for _, smp := range samples {
		if smp.Name == "runtime_goroutines" {
			found = true
		}
	}
	if !found {
		t.Error("runtime gauges missing when telemetry is disabled")
	}
}

// TestRequestSpans: a served request leaves a request -> admission /
// worker.serve / sim.run span tree on the collector with no dangling
// parents.
func TestRequestSpans(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	// The spans must be in the collector by the time the response
	// arrives — on the plain path too, not only under return_spans —
	// so every short request reads the collector straight away.
	for i := 1; i <= 50; i++ {
		if status, out := post(t, s, Request{Workload: "433.milc", Controller: "none", Accesses: 500}); status != http.StatusOK {
			t.Fatalf("run %d: status %d (%s)", i, status, out.Error)
		}
		checkRequestTrees(t, tel.Spans(), i)
	}
}

// checkRequestTrees asserts that spans hold n complete request trees:
// n spans of each service-level name, no dangling parent, and every
// sim.run hanging off a request span across the collector hop.
func checkRequestTrees(t *testing.T, spans []telemetry.SpanRecord, n int) {
	t.Helper()
	names := map[string]int{}
	ids := map[telemetry.SpanID]bool{}
	reqIDs := map[telemetry.SpanID]bool{}
	for _, sp := range spans {
		names[sp.Name]++
		ids[sp.ID] = true
		if sp.Name == "request" {
			reqIDs[sp.ID] = true
		}
	}
	for _, want := range []string{"request", "admission", "worker.serve", "sim.run"} {
		if names[want] != n {
			t.Fatalf("after %d requests: %d %q spans recorded, want %d (got %v)", n, names[want], want, n, names)
		}
	}
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Fatalf("after %d requests: span %s has dangling parent %016x", n, sp.Name, uint64(sp.Parent))
		}
		if sp.Name == "sim.run" && !reqIDs[sp.Parent] {
			t.Fatalf("sim.run parent %016x is not a request span", uint64(sp.Parent))
		}
	}
}

// TestRequestSpansOnTimeout: a 504 answer also ships only after the
// request and worker.serve spans are recorded.
func TestRequestSpansOnTimeout(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Telemetry = tel
		c.Chaos = &Chaos{SlowHandler: 400 * time.Millisecond}
		c.Workers = 1
		c.RequestTimeout = 50 * time.Millisecond
	})
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "bo", Accesses: 20000}); status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, out.Error)
	}
	names := map[string]int{}
	for _, sp := range tel.Spans() {
		names[sp.Name]++
	}
	for _, want := range []string{"request", "admission", "worker.serve"} {
		if names[want] != 1 {
			t.Errorf("%q spans recorded when the 504 arrived = %d, want 1 (got %v)", want, names[want], names)
		}
	}
}
