package service

import (
	"net/http"
	"testing"

	"resemble/internal/telemetry"
)

// TestServicePprofLifecycle: Config.PprofAddr serves the pprof index
// on a separate listener which drain shuts down.
func TestServicePprofLifecycle(t *testing.T) {
	s := startService(t, func(c *Config) { c.PprofAddr = "127.0.0.1:0" })
	addr := s.PprofAddr()
	if addr == "" {
		t.Fatal("pprof address empty after Start")
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/debug/pprof/"); err == nil {
		t.Error("pprof server still serving after drain")
	}
}

// TestPhaseAllocCountersOnMetrics: with AllocAttribution enabled the
// exposition carries per-phase allocation counter families labeled by
// phase, covering the request → sim span tree.
func TestPhaseAllocCountersOnMetrics(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{AllocAttribution: true})
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
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("/metrics fails the exposition grammar: %v", err)
	}
	phases := map[string]float64{}
	bytesByPhase := map[string]float64{}
	for _, smp := range samples {
		switch smp.Name {
		case "phase_allocs_count_total":
			phases[smp.Labels["phase"]] = smp.Value
		case "phase_allocs_bytes_total":
			bytesByPhase[smp.Labels["phase"]] = smp.Value
		}
	}
	for _, want := range []string{"request", "worker.serve", "sim.run", "sim.simulate", "window.commit"} {
		if phases[want] < 1 {
			t.Errorf("phase %q missing from exposition (phases: %v)", want, phases)
		}
	}
	if bytesByPhase["sim.run"] <= 0 {
		t.Errorf("sim.run alloc bytes = %v, want > 0", bytesByPhase["sim.run"])
	}
}
