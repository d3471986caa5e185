package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"resemble/internal/cas"
	"resemble/internal/core"
	"resemble/internal/resilience"
)

// fastMask shrinks the masking operating point so a broken arm trips
// within a few thousand accesses, and makes in-run masking sticky
// (reprobe beyond any test trace) so the end-of-run breaker report is
// deterministic.
func fastMask(req Request) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = 1 + req.Seed
	cfg.Batch = 64
	cfg.MaskFloor = 0.2
	cfg.MaskWindow = 512
	cfg.MaskBadWindows = 2
	cfg.MaskMinSamples = 8
	cfg.MaskReprobe = 1 << 20
	return cfg
}

// TestChaosStuckArmTripsBreaker drives the full degradation pipeline:
// a stuck BO arm is masked by the controller within each run,
// consecutive masked runs trip BO's circuit breaker, solo BO requests
// are refused with 503 + Retry-After, and ensembles keep serving with
// the arm excluded.
func TestChaosStuckArmTripsBreaker(t *testing.T) {
	chaos := &Chaos{StuckArm: "bo", FaultSeed: 97}
	s := startService(t, func(c *Config) {
		c.Chaos = chaos
		c.Workers = 1
		c.ControllerConfig = fastMask
		c.Breaker = resilience.BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute}
	})

	run := Request{Workload: "433.lbm", Controller: "resemble-t", Accesses: 8000}
	var lastMasked []string
	for i := 0; i < 2; i++ {
		status, resp := post(t, s, run)
		if status != http.StatusOK {
			t.Fatalf("run %d: status %d (%s)", i, status, resp.Error)
		}
		lastMasked = resp.MaskedArms
	}
	if !contains(lastMasked, "bo") {
		t.Fatalf("stuck arm not masked by run end (masked %v)", lastMasked)
	}
	if st := s.Breaker("bo").State(); st != resilience.Open {
		t.Fatalf("bo breaker = %v after %d masked runs, want open", st, 2)
	}

	// Solo requests for the broken arm are refused, not simulated.
	body, _ := json.Marshal(Request{Workload: "433.lbm", Controller: "bo", Accesses: 2000})
	resp, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solo broken arm: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Ensembles degrade gracefully: the broken arm is excluded. (At the
	// aggressive fastMask operating point a genuinely weak arm may trip
	// too — only the stuck arm's exclusion is the contract here.)
	status, out := post(t, s, run)
	if status != http.StatusOK {
		t.Fatalf("degraded ensemble: status %d (%s)", status, out.Error)
	}
	if !contains(out.ExcludedArms, "bo") {
		t.Fatalf("excluded arms = %v, want bo excluded", out.ExcludedArms)
	}
	if len(out.ExcludedArms) == len(ArmNames()) {
		t.Fatal("every arm excluded; the ensemble should have been refused instead")
	}
	if s.Breaker("bo").Trips() == 0 {
		t.Fatal("trip counter not incremented")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestChaosBreakerRecovers: once the chaos window ends and the
// breaker's open interval elapses, a half-open probe run readmits the
// arm and a clean result closes the breaker.
func TestChaosBreakerRecovers(t *testing.T) {
	chaos := &Chaos{StuckArm: "bo", FaultSeed: 97}
	s := startService(t, func(c *Config) {
		c.Chaos = chaos
		c.Workers = 1
		c.ControllerConfig = fastMask
		c.Breaker = resilience.BreakerConfig{
			FailureThreshold: 2,
			OpenFor:          10 * time.Millisecond,
			HalfOpenProbes:   1,
		}
	})
	run := Request{Workload: "433.lbm", Controller: "resemble-t", Accesses: 8000}
	for i := 0; i < 2; i++ {
		if status, resp := post(t, s, run); status != http.StatusOK {
			t.Fatalf("run %d: status %d (%s)", i, status, resp.Error)
		}
	}
	if st := s.Breaker("bo").State(); st != resilience.Open {
		t.Fatalf("bo breaker = %v, want open", st)
	}

	chaos.Stop()
	time.Sleep(20 * time.Millisecond) // past OpenFor: next Allow half-opens

	status, out := post(t, s, run)
	if status != http.StatusOK {
		t.Fatalf("probe run: status %d (%s)", status, out.Error)
	}
	if len(out.ExcludedArms) != 0 {
		t.Fatalf("probe run excluded %v, want the arm readmitted", out.ExcludedArms)
	}
	for _, arm := range out.MaskedArms {
		if arm == "bo" {
			t.Fatal("recovered arm still masked at run end")
		}
	}
	if st := s.Breaker("bo").State(); st != resilience.Closed {
		t.Fatalf("bo breaker = %v after clean probe, want closed", st)
	}
}

// TestChaosCheckpointWriterRetried: injected run-checkpoint write
// failures cost durability, never correctness — the failures are
// counted, every response matches the fault-free one, later run
// checkpoints still land in the artifact store, and the store's
// recovery sweep finds nothing to repair.
func TestChaosCheckpointWriterRetried(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	store, rep, err := cas.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store sweep: %v", rep)
	}
	s := startService(t, func(c *Config) {
		c.Chaos = &Chaos{CheckpointFailures: 2}
		c.Store = store
		c.RunCheckpointEvery = 512
	})
	ref := startService(t, nil)
	for seed := int64(0); seed < 2; seed++ {
		req := Request{Workload: "433.milc", Controller: "bo", Accesses: 4000, Seed: seed}
		status, got := post(t, s, req)
		if status != http.StatusOK {
			t.Fatalf("request under checkpoint faults: status %d (%s)", status, got.Error)
		}
		status, want := post(t, ref, req)
		if status != http.StatusOK {
			t.Fatalf("fault-free reference: status %d (%s)", status, want.Error)
		}
		got.DurationMS, want.DurationMS = 0, 0
		got.CheckpointID = ""
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: response under checkpoint faults differs from the fault-free one:\nwant %+v\ngot  %+v",
				seed, want, got)
		}
	}
	st := s.Stats()
	if st.RunCkpFailures < 2 {
		t.Fatalf("run checkpoint failures = %d, want >= 2 (two injected failures)", st.RunCkpFailures)
	}
	if st.RunCkpWrites == 0 {
		t.Fatal("no run checkpoint landed after the injected failures")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("drain after checkpoint faults: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rep, err := cas.Open(storeDir); err != nil || !rep.Clean() {
		t.Errorf("store recovery sweep after checkpoint faults: report %v, err %v", rep, err)
	}
}

// TestChaosPanicSupervision: an injected worker panic is answered as
// 500, the worker restarts under supervision, and the service keeps
// serving later requests.
func TestChaosPanicSupervision(t *testing.T) {
	chaos := &Chaos{PanicEvery: 2} // panics the 2nd, 4th, ... simulation
	s := startService(t, func(c *Config) {
		c.Chaos = chaos
		c.Workers = 1
	})
	req := Request{Workload: "433.milc", Controller: "none", Accesses: 2000}
	if status, resp := post(t, s, req); status != http.StatusOK {
		t.Fatalf("first request: status %d (%s)", status, resp.Error)
	}
	status, resp := post(t, s, req)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", status)
	}
	if resp.Error == "" {
		t.Fatal("500 without an error message")
	}
	if status, resp := post(t, s, req); status != http.StatusOK {
		t.Fatalf("request after restart: status %d (%s)", status, resp.Error)
	}
	st := s.Stats()
	if st.Panics != 1 || st.Restarts != 1 {
		t.Fatalf("panics=%d restarts=%d, want 1/1", st.Panics, st.Restarts)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("drain after supervised restart: %v", err)
	}
}

// TestChaosSlowHandlerShedsAndReadyzFlips: with one worker stalled by
// the slow-handler fault and a one-deep queue, concurrent arrivals are
// shed with 503 + Retry-After, /readyz flips to 503 while saturated,
// and both recover when the burst passes.
func TestChaosSlowHandlerShedsAndReadyzFlips(t *testing.T) {
	chaos := &Chaos{SlowHandler: 300 * time.Millisecond}
	s := startService(t, func(c *Config) {
		c.Chaos = chaos
		c.Workers = 1
		c.QueueDepth = 1
	})

	const burst = 6
	type outcome struct {
		status     int
		retryAfter string
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(Request{Workload: "433.milc", Controller: "none", Accesses: 2000})
			resp, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			outcomes[i] = outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}

	// While the burst saturates the queue, readiness must flip.
	sawUnready := false
	for j := 0; j < 50 && !sawUnready; j++ {
		if getStatus(t, s, "/readyz") == http.StatusServiceUnavailable {
			sawUnready = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()

	var ok, shed int
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if o.retryAfter == "" {
				t.Fatal("shed response missing Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d in burst", o.status)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("burst outcomes ok=%d shed=%d, want both nonzero", ok, shed)
	}
	if !sawUnready {
		t.Fatal("readyz never flipped to 503 under saturation")
	}
	if got := s.Stats().Shed; got == 0 {
		t.Fatal("shed counter not incremented")
	}

	// The burst passes; readiness recovers.
	chaos.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for getStatus(t, s, "/readyz") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("readyz did not recover after the burst")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRequestDeadlinePropagates: a request that cannot finish inside
// the request timeout is interrupted in the simulator (not abandoned)
// and answered with 504.
func TestRequestDeadlinePropagates(t *testing.T) {
	// The slow handler holds the run far past the request timeout so
	// the deadline wins even on a loaded machine (a tight margin here
	// flakes under a parallel full-suite run).
	chaos := &Chaos{SlowHandler: 400 * time.Millisecond}
	s := startService(t, func(c *Config) {
		c.Chaos = chaos
		c.Workers = 1
		c.RequestTimeout = 50 * time.Millisecond
	})
	status, resp := post(t, s, Request{Workload: "433.milc", Controller: "bo", Accesses: 20000})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, resp.Error)
	}
	if got := s.Stats().TimedOut; got != 1 {
		t.Fatalf("timed out = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("drain after timeout: %v", err)
	}
}

// TestChaosCorruptTracesStillServes: corrupted trace records must not
// crash the service — the simulation completes (the trace layer is
// total over arbitrary records) and the response is well-formed.
func TestChaosCorruptTracesStillServes(t *testing.T) {
	chaos := &Chaos{CorruptTraces: 0.05, FaultSeed: 11}
	s := startService(t, func(c *Config) { c.Chaos = chaos })
	status, resp := post(t, s, Request{Workload: "433.milc", Controller: "bo", Accesses: 3000})
	if status != http.StatusOK {
		t.Fatalf("corrupted-trace run: status %d (%s)", status, resp.Error)
	}
	if resp.Instructions == 0 {
		t.Fatal("corrupted-trace run produced no instructions")
	}
}
