package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"resemble/internal/cas"
	"resemble/internal/core"
	"resemble/internal/resilience"
	"resemble/internal/service"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

type soakConfig struct {
	duration  time.Duration
	accesses  int
	workers   int
	chromeOut string // write + self-validate a Chrome trace from phase 1
	logf      func(string, ...any)
}

// soak drives the phases and accumulates assertion failures.
type soak struct {
	cfg      soakConfig
	failures int
}

func (k *soak) failf(format string, args ...any) {
	k.failures++
	k.cfg.logf("soak: FAIL: "+format, args...)
}

func (k *soak) passf(format string, args ...any) {
	k.cfg.logf("soak: ok: "+format, args...)
}

// runSoak executes the chaos/soak harness and returns the exit code.
func runSoak(cfg soakConfig) int {
	k := &soak{cfg: cfg}
	baseline := runtime.NumGoroutine()

	k.phaseEquivalence()
	k.phaseChaosAndRecovery()

	// Everything the harness started must be gone: poll the goroutine
	// count back to baseline (small allowance for http client
	// keep-alive reapers and runtime bookkeeping).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+3 {
		k.failf("goroutines leaked: %d now vs %d at start", n, baseline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	} else {
		k.passf("no leaked goroutines (%d -> %d)", baseline, n)
	}

	if k.failures > 0 {
		k.cfg.logf("soak: %d assertion(s) FAILED", k.failures)
		return 1
	}
	k.cfg.logf("soak: all phases passed")
	return 0
}

// post fires one request and returns the status, Retry-After header
// and decoded response.
func (k *soak) post(addr string, req service.Request) (int, string, service.Response) {
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		k.failf("POST /v1/run: %v", err)
		return 0, "", service.Response{}
	}
	defer resp.Body.Close()
	var out service.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		k.failf("decode response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), out
}

// phaseEquivalence pins the zero-fault contract: the service's merged
// telemetry window stream is byte-identical to a batch sim.Runner
// executing the same requests serially.
func (k *soak) phaseEquivalence() {
	k.cfg.logf("soak: phase 1: zero-fault batch equivalence")
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true, ChromeOut: k.cfg.chromeOut})
	if err != nil {
		k.failf("telemetry: %v", err)
		return
	}
	s, err := service.New(service.Config{
		Workers:         k.cfg.workers,
		DefaultAccesses: k.cfg.accesses,
		Telemetry:       tel,
		// The pprof sidecar rides along so the drain path and the
		// end-of-soak goroutine audit cover its serve goroutine too.
		PprofAddr: "127.0.0.1:0",
	})
	if err != nil {
		k.failf("service.New: %v", err)
		return
	}
	if err := s.Start(); err != nil {
		k.failf("service.Start: %v", err)
		return
	}
	if resp, err := http.Get("http://" + s.PprofAddr() + "/debug/pprof/"); err != nil || resp.StatusCode != http.StatusOK {
		k.failf("pprof sidecar index: err=%v", err)
	} else {
		resp.Body.Close()
		k.passf("pprof sidecar serving on %s", s.PprofAddr())
	}
	pprofAddr := s.PprofAddr()

	reqs := []service.Request{
		{Workload: "433.milc", Controller: "resemble-t", Accesses: k.cfg.accesses},
		{Workload: "471.omnetpp", Controller: "bo", Accesses: k.cfg.accesses},
		{Workload: "433.lbm", Controller: "sbp-e", Accesses: k.cfg.accesses},
		{Workload: "433.milc", Controller: "none", Accesses: k.cfg.accesses},
	}
	for i, req := range reqs {
		status, _, out := k.post(s.Addr(), req)
		if status != http.StatusOK {
			k.failf("request %d: status %d (%s)", i, status, out.Error)
		}
		if len(out.ExcludedArms) != 0 {
			k.failf("request %d: zero-fault run excluded arms %v", i, out.ExcludedArms)
		}
	}
	if err := s.Close(); err != nil {
		k.failf("drain: %v", err)
	}
	if _, err := http.Get("http://" + pprofAddr + "/debug/pprof/"); err == nil {
		k.failf("pprof sidecar still serving after drain")
	} else {
		k.passf("pprof sidecar shut down with the service")
	}

	// Batch reference: same requests, serially, one runner + collector.
	// A never-started service with identical config supplies identical
	// source construction (all breakers closed).
	batchTel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		k.failf("telemetry: %v", err)
		return
	}
	ref, err := service.New(service.Config{DefaultAccesses: k.cfg.accesses, Telemetry: batchTel})
	if err != nil {
		k.failf("reference service: %v", err)
		return
	}
	runner := sim.NewRunner(sim.DefaultConfig(), sim.WithTelemetry(batchTel))
	for i, req := range reqs {
		w, err := trace.Lookup(req.Workload)
		if err != nil {
			k.failf("lookup %q: %v", req.Workload, err)
			return
		}
		src, _, err := ref.BuildSource(req)
		if err != nil {
			k.failf("reference source %d: %v", i, err)
			return
		}
		tr := trace.Shared().Get(w, req.Accesses, w.Seed+req.Seed)
		if _, err := runner.Run(tr, src); err != nil {
			k.failf("batch run %d: %v", i, err)
			return
		}
	}

	got, _ := json.Marshal(tel.Windows())
	want, _ := json.Marshal(batchTel.Windows())
	switch {
	case len(tel.Windows()) == 0:
		k.failf("service produced no telemetry windows")
	case !bytes.Equal(got, want):
		k.failf("service windows diverge from batch (%d vs %d windows)",
			len(tel.Windows()), len(batchTel.Windows()))
	default:
		k.passf("windows byte-identical to batch with spans enabled (%d windows)", len(tel.Windows()))
	}

	// Closing the collector flushes the span trace; with -trace-chrome
	// the harness validates its own output end-to-end.
	if err := tel.Close(); err != nil {
		k.failf("telemetry close: %v", err)
	}
	if k.cfg.chromeOut != "" {
		if err := telemetry.ValidateChromeTraceFile(k.cfg.chromeOut); err != nil {
			k.failf("chrome trace %s invalid: %v", k.cfg.chromeOut, err)
		} else {
			k.passf("chrome trace written and validated (%s)", k.cfg.chromeOut)
		}
	}
}

// scrapeReady fetches /metrics, asserts the exposition parses against
// the OpenMetrics grammar, and returns the service_ready gauge value.
func (k *soak) scrapeReady(addr string) (float64, bool) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		k.failf("/metrics exposition invalid: %v", err)
		return 0, false
	}
	for _, smp := range samples {
		if smp.Name == "service_ready" {
			return smp.Value, true
		}
	}
	k.failf("/metrics has no service_ready gauge")
	return 0, false
}

// auditAttribution asserts the per-phase allocation counters reach the
// exposition with phase labels once runs have completed.
func (k *soak) auditAttribution(addr string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		k.failf("attribution scrape: %v", err)
		return
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		k.failf("/metrics exposition invalid: %v", err)
		return
	}
	phases := map[string]bool{}
	for _, smp := range samples {
		if smp.Name == "phase_allocs_bytes_total" {
			phases[smp.Labels["phase"]] = true
		}
	}
	if !phases["sim.run"] || !phases["request"] {
		k.failf("phase_allocs_bytes missing core phases (got %v)", phases)
		return
	}
	k.passf("per-phase allocation counters on /metrics (%d phases)", len(phases))
}

// auditFlightRecorder asserts the stuck-arm breaker trip was captured
// as an incident bundle (trigger, process label, breadcrumbs,
// pre-incident metrics history) and that /metrics/history serves the
// sampler ring.
func (k *soak) auditFlightRecorder(addr string) {
	resp, err := http.Get("http://" + addr + "/debug/incidents")
	if err != nil {
		k.failf("incident list: %v", err)
		return
	}
	var list struct {
		Count     int                  `json:"count"`
		Incidents []telemetry.Incident `json:"incidents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		k.failf("incident list decode: %v", err)
		return
	}
	var trip *telemetry.Incident
	for i := range list.Incidents {
		if list.Incidents[i].Trigger == "breaker.trip" {
			trip = &list.Incidents[i]
		}
	}
	switch {
	case trip == nil:
		k.failf("no breaker.trip incident captured (%d incidents)", list.Count)
	case trip.Process != "resembled "+addr:
		k.failf("breaker.trip incident process = %q, want %q", trip.Process, "resembled "+addr)
	case len(trip.Events) == 0:
		k.failf("breaker.trip incident has no breadcrumbs")
	case len(trip.History) == 0:
		k.failf("breaker.trip incident embeds no metrics history")
	default:
		k.passf("breaker trip captured as incident %d with %d history sample(s)",
			trip.Seq, len(trip.History))
	}

	resp, err = http.Get("http://" + addr + "/metrics/history")
	if err != nil {
		k.failf("/metrics/history: %v", err)
		return
	}
	var hist struct {
		PeriodMS int64                     `json:"period_ms"`
		Count    int                       `json:"count"`
		Samples  []telemetry.HistorySample `json:"samples"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hist)
	resp.Body.Close()
	if err != nil {
		k.failf("/metrics/history decode: %v", err)
		return
	}
	switch {
	case hist.PeriodMS != 50:
		k.failf("/metrics/history period_ms = %d, want 50", hist.PeriodMS)
	case hist.Count == 0:
		k.failf("/metrics/history is empty")
	case len(hist.Samples[hist.Count-1].Counters) == 0:
		k.failf("/metrics/history newest sample has no counters")
	default:
		k.passf("/metrics/history serving %d sample(s) at %dms period", hist.Count, hist.PeriodMS)
	}
}

// auditCapture takes an on-demand profile capture over HTTP and
// validates the manifest: files on disk, decoded top alloc symbols.
func (k *soak) auditCapture(addr string) {
	resp, err := http.Post("http://"+addr+"/debug/profile/capture?cpu_ms=50", "", nil)
	if err != nil {
		k.failf("profile capture: %v", err)
		return
	}
	defer resp.Body.Close()
	var info service.CaptureInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		k.failf("capture manifest decode (status %d): %v", resp.StatusCode, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		k.failf("capture status %d: %s", resp.StatusCode, info.Error)
		return
	}
	if info.Seq < 1 || len(info.Files) == 0 {
		k.failf("capture manifest incomplete: %+v", info)
		return
	}
	for _, f := range info.Files {
		if _, err := os.Stat(filepath.Join(info.Dir, f)); err != nil {
			k.failf("capture file %s: %v", f, err)
			return
		}
	}
	if len(info.TopAllocSpace) == 0 {
		k.failf("capture manifest has no decoded alloc symbols")
		return
	}
	k.passf("on-demand capture %d: %v, top alloc %s",
		info.Seq, info.Files, info.TopAllocSpace[0].Func)
}

// phaseChaosAndRecovery runs the fault window — stuck arm, failing
// run-checkpoint writes, slow handlers under a tiny queue — asserts
// every resilience mechanism engages, then lifts the chaos and asserts
// the service heals, drains, and leaves its artifact store clean.
func (k *soak) phaseChaosAndRecovery() {
	k.cfg.logf("soak: phase 2: chaos window (stuck arm, failing run-checkpoint writes, slow handlers)")
	dir, err := os.MkdirTemp("", "resembled-soak")
	if err != nil {
		k.failf("tempdir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	store, _, err := cas.Open(storeDir)
	if err != nil {
		k.failf("store: %v", err)
		return
	}

	chaos := &service.Chaos{
		StuckArm:           "bo",
		FaultSeed:          97,
		CheckpointFailures: 2,
	}
	// Attribution on in the chaos window: phase 1 keeps it off to
	// preserve the byte-identity contract, here it must survive chaos
	// and surface on /metrics.
	chaosTel, err := telemetry.New(telemetry.Config{AllocAttribution: true})
	if err != nil {
		k.failf("chaos telemetry: %v", err)
		return
	}
	s, err := service.New(service.Config{
		Workers:    1,
		QueueDepth: 2,
		Telemetry:  chaosTel,
		// Dense metrics-history sampling so the breaker-trip incident
		// below embeds a real pre-incident window.
		HistoryEvery: 50 * time.Millisecond,
		Profile:      service.ProfileConfig{Dir: filepath.Join(dir, "profiles"), Ring: 2},
		// Dense run checkpoints so the injected write failures hit the
		// first chaos run and later runs still checkpoint.
		Store:              store,
		RunCheckpointEvery: 512,
		Chaos:              chaos,
		ControllerConfig: func(req service.Request) core.Config {
			cfg := core.DefaultConfig()
			cfg.Seed = 1 + req.Seed
			cfg.Batch = 64
			cfg.MaskFloor = 0.2
			cfg.MaskWindow = 512
			cfg.MaskBadWindows = 2
			cfg.MaskMinSamples = 8
			cfg.MaskReprobe = 1 << 20
			return cfg
		},
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 2,
			OpenFor:          300 * time.Millisecond,
			HalfOpenProbes:   1,
		},
	})
	if err != nil {
		k.failf("chaos service.New: %v", err)
		return
	}
	if err := s.Start(); err != nil {
		k.failf("chaos service.Start: %v", err)
		return
	}

	// The ready gauge on /metrics starts at 1; the overload window below
	// must drag it to 0 and recovery must restore it.
	if v, ok := k.scrapeReady(s.Addr()); ok && v != 1 {
		k.failf("service_ready gauge = %v at start, want 1", v)
	}

	// Stuck arm: consecutive masked runs must trip BO's breaker.
	ensemble := service.Request{Workload: "433.lbm", Controller: "resemble-t", Accesses: 2 * k.cfg.accesses}
	tripDeadline := time.Now().Add(k.cfg.duration)
	for s.Breaker("bo").State() != resilience.Open && time.Now().Before(tripDeadline) {
		if status, _, out := k.post(s.Addr(), ensemble); status != http.StatusOK {
			k.failf("ensemble run under chaos: status %d (%s)", status, out.Error)
			break
		}
	}
	if st := s.Breaker("bo").State(); st != resilience.Open {
		k.failf("bo breaker = %v, want open (stuck arm not detected)", st)
	} else {
		k.passf("stuck arm tripped its breaker (trips=%d)", s.Breaker("bo").Trips())
	}

	// The trip is an incident: the flight recorder must have captured a
	// bundle with pre-incident metrics history, and the history sampler
	// must be serving its ring.
	k.auditFlightRecorder(s.Addr())

	// Solo requests for the broken arm are refused with the shedding
	// contract while the breaker is open.
	if status, retryAfter, _ := k.post(s.Addr(), service.Request{
		Workload: "433.milc", Controller: "bo", Accesses: k.cfg.accesses,
	}); status != http.StatusServiceUnavailable || retryAfter == "" {
		k.failf("solo broken arm: status %d retry-after %q, want 503 with Retry-After", status, retryAfter)
	} else {
		k.passf("open breaker refuses solo requests (503 + Retry-After)")
	}

	// Overload: slow handlers + 1 worker + 2-deep queue must shed part
	// of a burst and flip readiness.
	chaos.SlowHandler = 250 * time.Millisecond
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		okN, shedN int
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, retryAfter, _ := k.post(s.Addr(), service.Request{
				Workload: "433.milc", Controller: "none", Accesses: k.cfg.accesses,
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case status == http.StatusOK:
				okN++
			case status == http.StatusServiceUnavailable && retryAfter != "":
				shedN++
			default:
				k.failf("burst: unexpected status %d (retry-after %q)", status, retryAfter)
			}
		}()
	}
	sawUnready := false
	sawGaugeZero := false
	for j := 0; j < 100 && !(sawUnready && sawGaugeZero); j++ {
		if resp, err := http.Get("http://" + s.Addr() + "/readyz"); err == nil {
			if resp.StatusCode == http.StatusServiceUnavailable {
				sawUnready = true
			}
			resp.Body.Close()
		}
		if v, ok := k.scrapeReady(s.Addr()); ok && v == 0 {
			sawGaugeZero = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	if okN == 0 || shedN == 0 {
		k.failf("burst outcomes ok=%d shed=%d, want both nonzero", okN, shedN)
	} else {
		k.passf("overload shed %d/%d requests with 503 + Retry-After", shedN, okN+shedN)
	}
	if !sawUnready {
		k.failf("/readyz never flipped to 503 under saturation")
	} else {
		k.passf("/readyz flipped to 503 under saturation")
	}
	if !sawGaugeZero {
		k.failf("service_ready gauge never dropped to 0 under saturation")
	} else {
		k.passf("service_ready gauge dropped to 0 under saturation")
	}

	// Recovery: chaos off, breaker half-opens, a clean probe closes it,
	// readiness returns.
	k.cfg.logf("soak: phase 3: recovery")
	chaos.Stop()
	time.Sleep(350 * time.Millisecond) // past OpenFor
	readyDeadline := time.Now().Add(3 * time.Second)
	ready := false
	for !ready && time.Now().Before(readyDeadline) {
		if resp, err := http.Get("http://" + s.Addr() + "/readyz"); err == nil {
			ready = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
		if !ready {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !ready {
		k.failf("/readyz did not recover after chaos stopped")
	} else {
		k.passf("/readyz recovered")
	}
	if v, ok := k.scrapeReady(s.Addr()); ok && v != 1 {
		k.failf("service_ready gauge = %v after recovery, want 1", v)
	} else if ok {
		k.passf("service_ready gauge back to 1 after recovery")
	}
	status, _, out := k.post(s.Addr(), ensemble)
	if status != http.StatusOK {
		k.failf("probe run: status %d (%s)", status, out.Error)
	}
	for _, arm := range out.ExcludedArms {
		if arm == "bo" {
			k.failf("recovered arm still excluded: %v", out.ExcludedArms)
		}
	}
	if st := s.Breaker("bo").State(); st != resilience.Closed {
		k.failf("bo breaker = %v after clean probe, want closed", st)
	} else {
		k.passf("breaker closed after clean probe run")
	}

	// Attribution and capture audit: per-phase allocation counters must
	// be on /metrics, and an on-demand capture must produce a manifest
	// whose heap profile round-trips through the in-tree decoder.
	k.auditAttribution(s.Addr())
	k.auditCapture(s.Addr())

	// Drain: the injected run-checkpoint failures cost durability only —
	// later checkpoints landed and the store needs no repair.
	k.cfg.logf("soak: phase 4: drain audit")
	if err := s.Close(); err != nil {
		k.failf("drain: %v", err)
	}
	st := s.Stats()
	if st.RunCkpFailures < 2 {
		k.failf("run checkpoint failures = %d, want >= 2 (injected failures not exercised)", st.RunCkpFailures)
	} else {
		k.passf("run checkpoints absorbed %d injected write failures", st.RunCkpFailures)
	}
	if st.RunCkpWrites == 0 {
		k.failf("no run checkpoint landed after the injected failures")
	} else {
		k.passf("%d run checkpoints landed after the injected failures", st.RunCkpWrites)
	}
	if err := store.Close(); err != nil {
		k.failf("store close: %v", err)
	}
	if _, rep, err := cas.Open(storeDir); err != nil || !rep.Clean() {
		k.failf("store recovery sweep after drain: report %v, err %v", rep, err)
	} else {
		k.passf("drained with a clean artifact store")
	}
}
