package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"resemble/internal/cas"
	"resemble/internal/cluster"
	"resemble/internal/faults"
	"resemble/internal/resilience"
	"resemble/internal/service"
	"resemble/internal/telemetry"
)

type clusterSoakConfig struct {
	duration   time.Duration
	accesses   int
	hedgeAfter time.Duration // 0 = harness default
	// artifactsDir, when non-empty, receives the kill-phase incident
	// bundle (incident-kill.json), the stitched cross-process Chrome
	// trace (stitched-kill.json) and their wedge-phase counterparts.
	artifactsDir string
	logf         func(string, ...any)
	// logger receives the front doors' operational log lines.
	logger *slog.Logger
}

// clusterSoak drives the phases and accumulates assertion failures.
type clusterSoak struct {
	cfg      clusterSoakConfig
	failures int

	front    *cluster.Front
	frontTel *telemetry.Collector
	// store is the fleet-shared artifact store: every backend
	// checkpoints runs into it and the front door resumes failovers
	// from it.
	store *cas.Store
	// sent is the admission-order request log every accepted request
	// lands in; the final determinism audit replays it on a single
	// instance and byte-compares the merged windows.
	sent []service.Request
}

func (k *clusterSoak) failf(format string, args ...any) {
	k.failures++
	k.cfg.logf("cluster-soak: FAIL: "+format, args...)
}

func (k *clusterSoak) passf(format string, args ...any) {
	k.cfg.logf("cluster-soak: ok: "+format, args...)
}

// backend is one in-process resembled instance under the front door.
type backend struct {
	svc     *service.Service
	tel     *telemetry.Collector
	chaos   *service.Chaos
	addr    string
	started time.Time // bounds how much metrics history it can hold
}

// startBackend boots one resembled instance. addr "" picks a port;
// the restart path passes the dead instance's address back in.
func (k *clusterSoak) startBackend(addr string) *backend {
	chaos := &service.Chaos{}
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		k.failf("backend telemetry: %v", err)
		return nil
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	svc, err := service.New(service.Config{
		Addr:            addr,
		Workers:         2,
		QueueDepth:      16,
		DefaultAccesses: k.cfg.accesses,
		Telemetry:       tel,
		Chaos:           chaos,
		Store:           k.store,
		// Checkpoint densely so a kill at any point mid-run has a
		// recent resume point behind it.
		RunCheckpointEvery: 512,
		// Sample metrics densely enough that an incident captured a few
		// seconds in already embeds a meaningful pre-incident window;
		// 1200 samples at 50ms is the 60s retention DESIGN.md §15 pins.
		HistoryEvery:   50 * time.Millisecond,
		HistorySamples: 1200,
		// Arm breakers are per-instance adaptive state: which arms a
		// run gets depends on the instance's history, so a fleet that
		// sharded the history differently would legitimately diverge
		// from a single instance. The determinism audit pins the
		// contract with that adaptation quiesced — an unreachable
		// threshold on every backend and on the reference.
		Breaker: resilience.BreakerConfig{FailureThreshold: 1 << 30},
	})
	if err != nil {
		k.failf("backend service.New(%s): %v", addr, err)
		return nil
	}
	if err := svc.Start(); err != nil {
		k.failf("backend service.Start(%s): %v", addr, err)
		return nil
	}
	return &backend{svc: svc, tel: tel, chaos: chaos, addr: svc.Addr(), started: time.Now()}
}

// runClusterSoak executes the cluster chaos harness: 3 backends behind
// a front door, determinism -> kill/failover/restart -> wedge/hedge ->
// ordered drain, with a goroutine-leak audit at the end. Returns the
// exit code.
func runClusterSoak(cfg clusterSoakConfig) int {
	if cfg.hedgeAfter <= 0 {
		cfg.hedgeAfter = 150 * time.Millisecond
	}
	k := &clusterSoak{cfg: cfg}
	baseline := runtime.NumGoroutine()

	k.run()

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
		k.cfg.logf("cluster-soak: %d assertion(s) FAILED", k.failures)
		return 1
	}
	k.cfg.logf("cluster-soak: all phases passed")
	return 0
}

// post fires one request through the front door, records it in the
// admission log on success, and returns the status and response.
func (k *clusterSoak) post(req service.Request) (int, service.Response) {
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+k.front.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		k.failf("POST /v1/run: %v", err)
		return 0, service.Response{}
	}
	defer resp.Body.Close()
	var out service.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		k.failf("decode response (status %d): %v", resp.StatusCode, err)
	}
	if resp.StatusCode == http.StatusOK {
		k.sent = append(k.sent, req)
	}
	return resp.StatusCode, out
}

func (k *clusterSoak) mustOK(what string, req service.Request) {
	if status, out := k.post(req); status != http.StatusOK {
		k.failf("%s: status %d (%s)", what, status, out.Error)
	}
}

// scrape pulls the front's /metrics, validates the exposition against
// the OpenMetrics grammar, and returns the samples.
func (k *clusterSoak) scrape() []telemetry.PromSample {
	resp, err := http.Get("http://" + k.front.Addr() + "/metrics")
	if err != nil {
		k.failf("/metrics scrape: %v", err)
		return nil
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		k.failf("/metrics exposition invalid: %v", err)
		return nil
	}
	return samples
}

func (k *clusterSoak) run() {
	k.cfg.logf("cluster-soak: phase 1: 3-backend fleet, zero-fault determinism")
	storeDir, err := os.MkdirTemp("", "resemble-cluster-soak-store-")
	if err != nil {
		k.failf("store dir: %v", err)
		return
	}
	defer os.RemoveAll(storeDir)
	store, rep, err := cas.Open(storeDir)
	if err != nil || !rep.Clean() {
		k.failf("shared store open: report %v, err %v", rep, err)
		return
	}
	k.store = store
	var backends []*backend
	var addrs []string
	for i := 0; i < 3; i++ {
		b := k.startBackend("")
		if b == nil {
			return
		}
		backends = append(backends, b)
		addrs = append(addrs, b.addr)
	}
	byAddr := func(addr string) *backend {
		for _, b := range backends {
			if b.addr == addr {
				return b
			}
		}
		return nil
	}

	frontTel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		k.failf("front telemetry: %v", err)
		return
	}
	k.frontTel = frontTel
	front, err := cluster.New(cluster.Config{
		Backends:       addrs,
		HedgeAfter:     k.cfg.hedgeAfter,
		MaxInFlight:    16,
		RequestTimeout: 60 * time.Second,
		DrainTimeout:   15 * time.Second,
		DrainBackends:  true,
		Store:          store,
		Probe: cluster.ProbeConfig{
			Interval: 25 * time.Millisecond,
			Breaker: resilience.BreakerConfig{
				FailureThreshold: 3,
				OpenFor:          400 * time.Millisecond,
				HalfOpenProbes:   1,
			},
		},
		Telemetry:      frontTel,
		HistoryEvery:   50 * time.Millisecond,
		HistorySamples: 1200,
		Logger:         k.cfg.logger,
	})
	if err != nil {
		k.failf("cluster.New: %v", err)
		return
	}
	if err := front.Start(); err != nil {
		k.failf("front.Start: %v", err)
		return
	}
	k.front = front

	reqs := []service.Request{
		{Workload: "433.milc", Controller: "resemble-t", Accesses: k.cfg.accesses},
		{Workload: "471.omnetpp", Controller: "bo", Accesses: k.cfg.accesses},
		{Workload: "433.lbm", Controller: "sbp-e", Accesses: k.cfg.accesses},
		{Workload: "433.milc", Controller: "none", Accesses: k.cfg.accesses, Seed: 1},
		{Workload: "471.omnetpp", Controller: "resemble-t", Accesses: k.cfg.accesses, Seed: 2},
		{Workload: "433.lbm", Controller: "resemble-t", Accesses: k.cfg.accesses, Seed: 3},
	}
	owners := map[string]bool{}
	for i, req := range reqs {
		k.mustOK("phase-1 request", req)
		if o, ok := front.Ring().Lookup(cluster.RouteKey(req)); ok {
			_ = i
			owners[o] = true
		}
	}
	if n := len(k.frontTel.Windows()); n == 0 {
		k.failf("front collector merged no windows after phase 1")
	} else {
		k.passf("phase 1: %d requests over %d owner backends merged %d windows",
			len(reqs), len(owners), n)
	}

	// Phase 2: kill a backend mid-stream (SIGKILL-equivalent: HTTP
	// severed without drain), assert failover keeps every request
	// whole, the prober ejects it, and a restart on the same address
	// readmits through half-open.
	k.cfg.logf("cluster-soak: phase 2: kill/failover/restart")
	killReq := service.Request{Workload: "433.milc", Controller: "resemble-t", Accesses: k.cfg.accesses, Seed: 42}
	victimAddr, _ := front.Ring().Lookup(cluster.RouteKey(killReq))
	victim := byAddr(victimAddr)
	victim.svc.Abort()
	k.passf("killed backend %s (owner of the probe key)", victimAddr)

	before := front.Stats()
	k.mustOK("request to killed owner", killReq)
	for i := 0; i < 4; i++ {
		req := reqs[i%len(reqs)]
		req.Seed += int64(50 + i)
		k.mustOK("phase-2 request", req)
	}
	after := front.Stats()
	if after.Failovers <= before.Failovers {
		k.failf("failovers did not advance past a killed backend (%d -> %d)",
			before.Failovers, after.Failovers)
	} else {
		k.passf("failover carried %d requests past the killed backend (failovers %d)",
			after.Completed-before.Completed, after.Failovers-before.Failovers)
	}

	ejectDeadline := time.Now().Add(k.cfg.duration)
	for front.Health().Breaker(victimAddr).State() != resilience.Open && time.Now().Before(ejectDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := front.Health().Breaker(victimAddr).State(); st != resilience.Open {
		k.failf("killed backend's breaker = %v, want open", st)
	} else {
		k.passf("prober ejected the killed backend")
	}
	ejectionsSeen := false
	for _, smp := range k.scrape() {
		if smp.Name == "cluster_backend_ejections_total" &&
			smp.Labels["backend"] == victimAddr && smp.Value >= 1 {
			ejectionsSeen = true
		}
	}
	if !ejectionsSeen {
		k.failf("fleet /metrics missing cluster_backend_ejections_total{backend=%q} >= 1", victimAddr)
	} else {
		k.passf("ejection visible on fleet /metrics with a backend label")
	}

	// The dead instance's engine is still running (only its HTTP front
	// was severed); reap it so the leak audit stays honest.
	if err := victim.svc.Close(); err != nil {
		k.failf("reaping aborted backend: %v", err)
	}
	if err := victim.tel.Close(); err != nil {
		k.failf("aborted backend telemetry close: %v", err)
	}

	// Restart on the same address and wait for half-open readmission.
	replacement := k.startBackend(victimAddr)
	if replacement == nil {
		return
	}
	backends[indexOf(addrs, victimAddr)] = replacement
	readmitDeadline := time.Now().Add(k.cfg.duration)
	for front.Health().Breaker(victimAddr).State() != resilience.Closed && time.Now().Before(readmitDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := front.Health().Breaker(victimAddr).State(); st != resilience.Closed {
		k.failf("restarted backend's breaker = %v, want closed (readmission)", st)
	} else {
		k.passf("restarted backend readmitted through half-open (transitions=%d)",
			front.Health().Breaker(victimAddr).Transitions())
	}
	preRestart := front.Stats().Failovers
	k.mustOK("request to restarted owner", killReq)
	if got := front.Stats().Failovers; got != preRestart {
		k.failf("request to readmitted backend still failed over (%d -> %d)", preRestart, got)
	} else {
		k.passf("readmitted backend serves its keys again")
	}

	// Phase 3: kill the owner of a long run mid-flight, once its
	// periodic checkpoints are durable in the shared store. A dedicated
	// hedge-free front drives this phase: with hedging on, a scratch
	// hedge can already be in flight when the owner dies and win the
	// race legitimately, proving nothing about resume. The failover
	// retry must carry the run to the next ring backend with
	// resume_from set, the continuation must report itself, and its
	// window stream must be byte-identical to an undisturbed
	// single-instance run.
	k.cfg.logf("cluster-soak: phase 3: kill mid-run, resume on the next ring backend")
	// This front carries its own collector: the kill must yield a
	// stitched cross-process trace (front request/attempt spans + the
	// resumed attempt's backend spans) and a failover fleet bundle.
	resumeTel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		k.failf("resume front telemetry: %v", err)
		return
	}
	front2, err := cluster.New(cluster.Config{
		Backends:       addrs,
		MaxInFlight:    4,
		RequestTimeout: 60 * time.Second,
		DrainTimeout:   15 * time.Second,
		Store:          store,
		Probe:          cluster.ProbeConfig{Interval: 25 * time.Millisecond},
		Telemetry:      resumeTel,
		HistoryEvery:   50 * time.Millisecond,
		HistorySamples: 1200,
		Logger:         k.cfg.logger,
	})
	if err != nil {
		k.failf("resume front: %v", err)
		return
	}
	if err := front2.Start(); err != nil {
		k.failf("resume front start: %v", err)
		return
	}
	resumeReq := service.Request{Workload: "433.milc", Controller: "bo",
		Accesses: k.cfg.accesses * 40, Seed: 99, ReturnWindows: true}
	seq := front2.Ring().Sequence(cluster.RouteKey(resumeReq))
	if len(seq) < 2 {
		k.failf("ring sequence too short for a failover: %v", seq)
		return
	}
	owner := byAddr(seq[0])
	type resumeOutcome struct {
		status int
		out    service.Response
	}
	resCh := make(chan resumeOutcome, 1)
	go func() {
		body, _ := json.Marshal(resumeReq)
		resp, err := http.Post("http://"+front2.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			resCh <- resumeOutcome{}
			return
		}
		defer resp.Body.Close()
		var out service.Response
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resCh <- resumeOutcome{resp.StatusCode, out}
	}()
	// Gate the kill on this run's own checkpoints being durable in the
	// store (two cursor tags plus latest). The owner's write counter is
	// no gate: it also moves for any earlier run still winding down
	// there, such as a hedge from phase 2 being cancelled.
	ckpPrefix := service.CheckpointTagPrefix(service.RunKey(resumeReq))
	ckpDeadline := time.Now().Add(60 * time.Second)
	for len(store.Tags(ckpPrefix)) < 3 && time.Now().Before(ckpDeadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if len(store.Tags(ckpPrefix)) < 3 {
		k.failf("owner %s wrote no run checkpoints to kill against", seq[0])
	}
	owner.svc.Abort()
	r := <-resCh
	switch {
	case r.status != http.StatusOK:
		k.failf("killed-mid-run request: status %d (%s)", r.status, r.out.Error)
	case r.out.ResumedFrom == "":
		k.failf("failover retried from scratch: response carries no resumed_from")
	default:
		k.passf("phase 3: run killed on %s resumed on the next backend from checkpoint %.12s…",
			seq[0], r.out.ResumedFrom)
	}
	if st := front2.Stats(); st.ResumedRetries != 1 {
		k.failf("resume front stats %+v, want exactly 1 resumed retry", st)
	}

	// The kill is an incident: the failover trigger must have assembled
	// a fleet bundle, and the trace of the killed-then-resumed request
	// must stitch into one valid cross-process Chrome trace.
	k.auditKillBundle(front2, seq[0], byAddr)
	k.auditKillTrace(resumeTel, seq[0])

	// Byte-identity: the same request, uninterrupted, on a lone
	// storeless instance must produce the same window stream.
	refW := k.referenceWindows(resumeReq)
	gotW, _ := json.Marshal(r.out.Windows)
	wantW, _ := json.Marshal(refW)
	if len(refW) == 0 || !bytes.Equal(gotW, wantW) {
		k.failf("resumed-elsewhere windows diverge from a single instance (%d vs %d windows)",
			len(r.out.Windows), len(refW))
	} else {
		k.passf("phase 3: resumed run byte-identical to a single instance (%d windows)", len(refW))
	}
	if err := front2.Close(); err != nil {
		k.failf("resume front close: %v", err)
	}
	if err := resumeTel.Close(); err != nil {
		k.failf("resume front telemetry close: %v", err)
	}

	// Reap the killed owner and restore the 3-wide fleet for the
	// remaining phases, waiting out breaker readmission as before.
	if err := owner.svc.Close(); err != nil {
		k.failf("reaping killed owner: %v", err)
	}
	if err := owner.tel.Close(); err != nil {
		k.failf("killed owner telemetry close: %v", err)
	}
	replacement = k.startBackend(seq[0])
	if replacement == nil {
		return
	}
	backends[indexOf(addrs, seq[0])] = replacement
	readmitDeadline = time.Now().Add(k.cfg.duration)
	for front.Health().Breaker(seq[0]).State() != resilience.Closed && time.Now().Before(readmitDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := front.Health().Breaker(seq[0]).State(); st != resilience.Closed {
		k.failf("backend restarted after mid-run kill not readmitted (breaker %v)", st)
	}

	// Phase 4: wedge a living backend's handlers; the hedge must carry
	// its keys to the next backend inside the tail-latency budget.
	k.cfg.logf("cluster-soak: phase 4: wedged backend, hedged requests")
	wedgeReq := service.Request{Workload: "433.lbm", Controller: "resemble-t", Accesses: k.cfg.accesses, Seed: 77}
	wedgeAddr, _ := front.Ring().Lookup(cluster.RouteKey(wedgeReq))
	wedged := byAddr(wedgeAddr)
	wedged.chaos.SlowHandler = 10 * time.Second
	preHedge := front.Stats()
	began := time.Now()
	k.mustOK("request to wedged owner", wedgeReq)
	took := time.Since(began)
	postHedge := front.Stats()
	if postHedge.Hedges <= preHedge.Hedges || postHedge.HedgeWins <= preHedge.HedgeWins {
		k.failf("hedge did not fire/win against a wedged backend (hedges %d -> %d, wins %d -> %d)",
			preHedge.Hedges, postHedge.Hedges, preHedge.HedgeWins, postHedge.HedgeWins)
	} else if took > 5*time.Second {
		k.failf("hedged request took %v — wedged backend still on the critical path", took)
	} else {
		k.passf("hedge won against the wedged backend in %v", took.Round(time.Millisecond))
	}
	wedged.chaos.Stop()

	// The wedge is observable too: hedge breadcrumbs in the front
	// door's flight recorder, a hedge span in its stitched trace, and a
	// manual capture assembling a live full-fleet bundle.
	k.auditWedgeObservability(front)

	// Phase 5: ordered drain and the fleet-wide determinism audit.
	k.cfg.logf("cluster-soak: phase 5: ordered drain + merged-window determinism audit")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := front.Drain(ctx); err != nil {
		k.failf("front drain: %v", err)
	}
	for _, b := range backends {
		if st := b.svc.State(); st != service.Stopped {
			k.failf("backend %s state = %v after fleet drain, want stopped", b.addr, st)
		}
		if err := b.svc.Close(); err != nil { // idempotent
			k.failf("backend %s close: %v", b.addr, err)
		}
		if err := b.tel.Close(); err != nil {
			k.failf("backend %s telemetry close: %v", b.addr, err)
		}
	}
	k.passf("fleet drained (front door first, backends quiesced in address order)")

	st := front.Stats()
	if st.Admitted != st.Completed || st.Failed != 0 {
		k.failf("lost accepted requests: admitted %d, completed %d, failed %d",
			st.Admitted, st.Completed, st.Failed)
	} else {
		k.passf("no lost accepted requests (%d admitted, %d completed, %d failovers, %d hedges)",
			st.Admitted, st.Completed, st.Failovers, st.Hedges)
	}
	if st.MergePending != 0 {
		k.failf("%d runs still parked in the merge reorder buffer", st.MergePending)
	}

	// Determinism: replay the admission log serially on one instance;
	// the sharded fleet's merged windows must byte-match it.
	refTel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		k.failf("reference telemetry: %v", err)
		return
	}
	ref, err := service.New(service.Config{
		Workers:         1,
		DefaultAccesses: k.cfg.accesses,
		Telemetry:       refTel,
		Breaker:         resilience.BreakerConfig{FailureThreshold: 1 << 30},
	})
	if err != nil {
		k.failf("reference service: %v", err)
		return
	}
	if err := ref.Start(); err != nil {
		k.failf("reference start: %v", err)
		return
	}
	for i, req := range k.sent {
		body, _ := json.Marshal(req)
		resp, err := http.Post("http://"+ref.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			k.failf("reference request %d: %v", i, err)
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			k.failf("reference request %d: status %d", i, resp.StatusCode)
		}
	}
	if err := ref.Close(); err != nil {
		k.failf("reference drain: %v", err)
	}
	got, _ := json.Marshal(k.frontTel.Windows())
	want, _ := json.Marshal(refTel.Windows())
	switch {
	case len(k.frontTel.Windows()) == 0:
		k.failf("fleet produced no merged windows")
	case !bytes.Equal(got, want):
		k.failf("fleet windows diverge from single instance (%d vs %d windows) despite kill/failover/hedge chaos",
			len(k.frontTel.Windows()), len(refTel.Windows()))
		k.dumpDivergence(k.frontTel.Windows(), refTel.Windows())
	default:
		k.passf("fleet windows byte-identical to a single instance across %d requests (%d windows)",
			len(k.sent), len(k.frontTel.Windows()))
	}
	if err := refTel.Close(); err != nil {
		k.failf("reference telemetry close: %v", err)
	}
	if err := k.frontTel.Close(); err != nil {
		k.failf("front telemetry close: %v", err)
	}

	// Phase 6: store corruption arms on a scratch store — every way the
	// bytes can rot while the process is away must be detected on read,
	// never served, and quarantined or repaired by the recovery sweep.
	k.cfg.logf("cluster-soak: phase 6: store corruption arms")
	for _, arm := range faults.StoreArms() {
		k.corruptionArm(arm)
	}
}

// referenceWindows runs req, uninterrupted, on a fresh storeless
// single instance and returns its window stream.
func (k *clusterSoak) referenceWindows(req service.Request) []telemetry.WindowSnapshot {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		k.failf("reference telemetry: %v", err)
		return nil
	}
	svc, err := service.New(service.Config{
		Workers:         1,
		DefaultAccesses: k.cfg.accesses,
		Telemetry:       tel,
		Breaker:         resilience.BreakerConfig{FailureThreshold: 1 << 30},
	})
	if err != nil {
		k.failf("reference instance: %v", err)
		return nil
	}
	if err := svc.Start(); err != nil {
		k.failf("reference start: %v", err)
		return nil
	}
	defer func() {
		if err := svc.Close(); err != nil {
			k.failf("reference close: %v", err)
		}
		if err := tel.Close(); err != nil {
			k.failf("reference telemetry close: %v", err)
		}
	}()
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+svc.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		k.failf("reference request: %v", err)
		return nil
	}
	defer resp.Body.Close()
	var out service.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		k.failf("reference decode: %v", err)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		k.failf("reference run: status %d (%s)", resp.StatusCode, out.Error)
		return nil
	}
	return out.Windows
}

// corruptionArm seeds a scratch store with one tagged blob, injects
// one corruption, reopens, and asserts the store's durability
// contract for that arm.
func (k *clusterSoak) corruptionArm(arm faults.StoreArm) {
	dir, err := os.MkdirTemp("", "resemble-soak-corrupt-")
	if err != nil {
		k.failf("%s: scratch dir: %v", arm, err)
		return
	}
	defer os.RemoveAll(dir)
	st, rep, err := cas.Open(dir)
	if err != nil || !rep.Clean() {
		k.failf("%s: scratch store open: report %v, err %v", arm, rep, err)
		return
	}
	payload := bytes.Repeat([]byte("soak artifact payload "), 64)
	id, err := st.PutTagged(cas.KindCheckpoint, payload, "ckp/soak/latest")
	if err != nil {
		k.failf("%s: seed blob: %v", arm, err)
		return
	}
	if err := faults.InjectStoreFault(dir, arm, cas.KindCheckpoint, id, 7); err != nil {
		k.failf("%s: inject: %v", arm, err)
		return
	}
	st2, rep2, err := cas.Open(dir)
	if err != nil {
		k.failf("%s: reopen after corruption: %v", arm, err)
		return
	}
	data, _, gerr := st2.Get(id)
	switch arm {
	case faults.BlobBitFlip, faults.BlobTruncate:
		if rep2.Corrupt != 1 {
			k.failf("%s: sweep report %v, want 1 corrupt blob", arm, rep2)
			return
		}
		if !errors.Is(gerr, cas.ErrNotFound) || data != nil {
			k.failf("%s: corrupt blob still serveable (err %v, %d bytes)", arm, gerr, len(data))
			return
		}
	case faults.TornTempFile:
		if rep2.TornTemps != 1 {
			k.failf("%s: sweep report %v, want 1 torn temp", arm, rep2)
			return
		}
		if gerr != nil || !bytes.Equal(data, payload) {
			k.failf("%s: committed blob damaged by a neighboring torn temp: %v", arm, gerr)
			return
		}
	case faults.IndexEntryDrop:
		if rep2.Adopted != 1 {
			k.failf("%s: sweep report %v, want 1 adopted orphan", arm, rep2)
			return
		}
		if gerr != nil || !bytes.Equal(data, payload) {
			k.failf("%s: re-adopted orphan not served intact: %v", arm, gerr)
			return
		}
	}
	if arm != faults.IndexEntryDrop {
		q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
		if len(q) == 0 {
			k.failf("%s: nothing landed in quarantine", arm)
			return
		}
	}
	k.passf("phase 6: %s detected and contained (sweep: %s)", arm, rep2)
}

// auditKillBundle waits for the failover trigger's fleet incident
// bundle on the resume front and asserts its contents: the killed
// backend contributes its pull error, every surviving backend its
// flight-recorder ring with as much pre-incident metrics history as
// its lifetime allows (up to the 30s the incident contract asks for).
func (k *clusterSoak) auditKillBundle(front2 *cluster.Front, killedAddr string, byAddr func(string) *backend) {
	// The trigger assembles the bundle in the background; wait for it.
	var bundle *cluster.FleetIncident
	deadline := time.Now().Add(10 * time.Second)
	for bundle == nil && time.Now().Before(deadline) {
		for _, fi := range front2.FleetIncidents() {
			if fi.Incident.Trigger == "failover" {
				fi := fi
				bundle = &fi
				break
			}
		}
		if bundle == nil {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if bundle == nil {
		k.failf("kill phase: no failover fleet incident bundle assembled")
		return
	}
	if len(bundle.Backends) != 3 {
		k.failf("kill bundle covers %d backends, want 3", len(bundle.Backends))
	}
	if len(bundle.Incident.History) == 0 {
		k.failf("kill bundle carries no front-door metrics history")
	}
	for addr, ring := range bundle.Backends {
		if addr == killedAddr {
			if ring.Error == "" {
				k.failf("kill bundle: killed backend %s pulled cleanly, want an error", addr)
			}
			continue
		}
		if ring.Snapshot == nil {
			k.failf("kill bundle: surviving backend %s has no snapshot (%s)", addr, ring.Error)
			continue
		}
		hist := ring.Snapshot.History
		if len(hist) == 0 {
			k.failf("kill bundle: surviving backend %s shipped no metrics history", addr)
			continue
		}
		span := time.Duration(hist[len(hist)-1].TMS-hist[0].TMS) * time.Millisecond
		want := 30 * time.Second
		if b := byAddr(addr); b != nil {
			// A backend can only have sampled between its start and the
			// incident's capture (the resumed run keeps the clock moving
			// long after the pull, so measure against the incident's own
			// timestamp, not now); leave a second of sampler slack.
			up := time.Duration(bundle.Incident.TMS-b.started.UnixMilli())*time.Millisecond - time.Second
			if up < want {
				want = up
			}
		}
		if want < 0 {
			want = 0
		}
		if span < want {
			k.failf("kill bundle: backend %s history spans %v, want >= %v", addr, span, want)
		}
	}
	k.passf("phase 3: failover fleet bundle embeds every surviving backend's pre-incident history")
	if out, err := json.MarshalIndent(bundle, "", "  "); err != nil {
		k.failf("kill bundle marshal: %v", err)
	} else {
		k.writeArtifact("incident-kill.json", out)
	}
}

// auditKillTrace asserts the resume front's collector stitched the
// killed-then-resumed request into one cross-process trace: the front
// request span, the killed attempt, the resumed attempt, and the
// surviving backend's adopted span tree — exported and validated as a
// Chrome trace.
func (k *clusterSoak) auditKillTrace(tel *telemetry.Collector, killedAddr string) {
	// The request span ends (and lands in the collector) a hair after
	// the response is written; poll briefly.
	var spans []telemetry.SpanRecord
	names := map[string]int{}
	backendProcs := map[string]bool{}
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans = tel.Spans()
		names = map[string]int{}
		backendProcs = map[string]bool{}
		for _, sp := range spans {
			names[sp.Name]++
			if strings.HasPrefix(sp.Proc, "backend ") {
				backendProcs[sp.Proc] = true
			}
		}
		if (names["request"] > 0 && names["attempt.resume"] > 0 && len(backendProcs) > 0) ||
			time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	switch {
	case names["request"] == 0:
		k.failf("stitched kill trace has no front request span")
	case names["attempt"] == 0:
		k.failf("stitched kill trace has no span for the killed attempt")
	case names["attempt.resume"] == 0:
		k.failf("stitched kill trace has no resumed-attempt span")
	case len(backendProcs) == 0:
		k.failf("stitched kill trace adopted no backend spans")
	case backendProcs["backend "+killedAddr]:
		k.failf("stitched kill trace carries spans from the killed backend %s", killedAddr)
	default:
		var buf bytes.Buffer
		if err := telemetry.WriteChromeTrace(&buf, spans); err != nil {
			k.failf("stitched kill trace export: %v", err)
			return
		}
		if err := telemetry.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
			k.failf("stitched kill trace invalid: %v", err)
			return
		}
		k.passf("phase 3: stitched cross-process trace validates (%d spans, front + %d backend proc(s))",
			len(spans), len(backendProcs))
		k.writeArtifact("stitched-kill.json", buf.Bytes())
	}
}

// auditWedgeObservability asserts the wedge/hedge phase is observable
// on the main front: a "hedge" breadcrumb in its flight-recorder ring,
// a "hedge" span in its stitched trace, and a manual capture that
// assembles a bundle from the (now healthy) whole fleet.
func (k *clusterSoak) auditWedgeObservability(front *cluster.Front) {
	resp, err := http.Get("http://" + front.Addr() + "/debug/flightrec")
	if err != nil {
		k.failf("front flightrec: %v", err)
		return
	}
	var snap telemetry.RecorderSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		k.failf("front flightrec decode: %v", err)
		return
	}
	hedgeNoted := false
	for _, ev := range snap.Events {
		if ev.Kind == "hedge" {
			hedgeNoted = true
		}
	}
	if !hedgeNoted {
		k.failf("front flight recorder has no hedge breadcrumb after the wedge phase")
	} else {
		k.passf("phase 4: hedge launch left a breadcrumb in the front flight recorder")
	}
	hedgeSpan := false
	for _, sp := range k.frontTel.Spans() {
		if sp.Name == "hedge" {
			hedgeSpan = true
		}
	}
	if !hedgeSpan {
		k.failf("front trace has no hedge span after the wedge phase")
	}

	resp, err = http.Post("http://"+front.Addr()+"/debug/incidents/capture", "application/json", nil)
	if err != nil {
		k.failf("manual fleet capture: %v", err)
		return
	}
	var bundle cluster.FleetIncident
	err = json.NewDecoder(resp.Body).Decode(&bundle)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		k.failf("manual fleet capture: status %d, err %v", resp.StatusCode, err)
		return
	}
	if bundle.Incident.Trigger != "manual: POST /debug/incidents/capture" {
		k.failf("manual capture trigger = %q", bundle.Incident.Trigger)
	}
	if len(bundle.Backends) != 3 {
		k.failf("manual capture covers %d backends, want 3", len(bundle.Backends))
	}
	for addr, ring := range bundle.Backends {
		if ring.Snapshot == nil {
			k.failf("manual capture: healthy backend %s has no snapshot (%s)", addr, ring.Error)
		} else if len(ring.Snapshot.History) == 0 {
			k.failf("manual capture: backend %s shipped no metrics history", addr)
		}
	}
	k.passf("phase 4: manual capture assembled a full-fleet bundle (%d backends)", len(bundle.Backends))
	if out, merr := json.MarshalIndent(bundle, "", "  "); merr == nil {
		k.writeArtifact("incident-wedge.json", out)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, k.frontTel.Spans()); err != nil {
		k.failf("wedge-phase stitched trace export: %v", err)
		return
	}
	if err := telemetry.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		k.failf("wedge-phase stitched trace invalid: %v", err)
		return
	}
	k.writeArtifact("stitched-wedge.json", buf.Bytes())
}

// writeArtifact drops bytes into the artifacts dir (no-op when unset).
func (k *clusterSoak) writeArtifact(name string, data []byte) {
	if k.cfg.artifactsDir == "" {
		return
	}
	path := filepath.Join(k.cfg.artifactsDir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		k.failf("artifact %s: %v", name, err)
		return
	}
	k.passf("artifact written: %s", path)
}

// dumpDivergence pinpoints the first window where the fleet's merged
// stream and the single-instance reference disagree.
func (k *clusterSoak) dumpDivergence(got, want []telemetry.WindowSnapshot) {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			k.cfg.logf("cluster-soak: first divergence at window %d:\n  fleet: %s\n  ref:   %s", i, g, w)
			return
		}
	}
	k.cfg.logf("cluster-soak: streams agree for %d windows; lengths %d vs %d", n, len(got), len(want))
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
