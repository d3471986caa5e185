// Package service turns the batch reproduction into a long-running,
// self-protecting prefetch-simulation server: a supervised engine that
// owns a sim.Runner, accepts simulation requests over a JSON HTTP API,
// and stays correct and available when dependencies misbehave under
// sustained load.
//
// The resilience layout (see DESIGN.md §9):
//
//   - admission: a bounded resilience.Queue sheds the newest arrivals
//     with 503 + Retry-After once full, and the readiness probe flips
//     to unready while the queue is saturated;
//   - execution: a pool of panic-recovering workers, restarted with
//     backoff by the supervisor, each bounding its run with the
//     request deadline (propagated through context into the
//     simulator's interrupt flag) and watched by a wedge watchdog;
//   - degradation: one circuit breaker per ensemble arm, fed by the
//     controller's accuracy-masking signal (internal/core) — an arm
//     that ends several consecutive runs masked is excluded from new
//     ensembles until its breaker half-opens and a probe run clears
//     it;
//   - persistence: with an artifact store attached (Config.Store),
//     every run checkpoints into the content-addressed store so a
//     coordinator can resume it on another instance; the service's own
//     counters are process-lifetime, like any Prometheus counter;
//   - observability: every decision surfaces through the service's
//     telemetry registry — the single store of its counters and gauges,
//     read by Stats, /stats and /metrics alike — and the shared ops
//     endpoints of internal/ops.
//
// On the happy path the resilience layer is observation-only: a
// zero-fault soak produces telemetry window output byte-identical to
// the equivalent batch sim.Runner invocation (pinned by
// TestServiceHappyPathMatchesBatch).
package service

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"resemble/internal/cas"
	"resemble/internal/core"
	"resemble/internal/ops"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/resilience"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// maxAccesses caps a request's trace length: /v1/run answers a larger
// accesses value with 400.
const maxAccesses = 500000

// Config parameterizes a Service. The zero value listens on an
// ephemeral localhost port with sensible defaults.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Workers is the simulation worker count (default 2).
	Workers int
	// QueueDepth bounds the admission queue (default 32).
	QueueDepth int
	// RequestTimeout bounds one simulation request end to end
	// (default 60s). The deadline propagates into the simulator via
	// its interrupt flag, so a timed-out run winds down instead of
	// simulating on unobserved.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain (default 30s).
	DrainTimeout time.Duration
	// DefaultAccesses is the trace length when a request omits it
	// (default 20000); requests above maxAccesses are rejected.
	DefaultAccesses int

	// Store, when non-nil, is the durable artifact store: every run
	// periodically checkpoints into it (keyed by the run-request hash
	// and access cursor, see RunKey/CheckpointTag) and /v1/run accepts
	// resume_from to warm-start from a stored checkpoint. Only run
	// checkpoints go into it; traces are regenerated, never stored.
	Store *cas.Store
	// RunCheckpointEvery is the access-count period between run
	// checkpoints (default 5000 when Store is set). A run interrupted
	// by its deadline always writes one final checkpoint at the
	// interrupt cursor regardless of the period.
	RunCheckpointEvery int

	// Telemetry, when non-nil, instruments every simulation (window
	// snapshots, sampled events) and its registry carries the service's
	// counters and gauges. Nil disables instrumentation; the service
	// then keeps its counters in a private registry. It also enables
	// the observability extras below: the metrics-history sampler and
	// the incident flight recorder.
	Telemetry *telemetry.Collector
	// HistoryEvery is the metrics-history sampling period (default 1s)
	// and HistorySamples the ring capacity (default 120 — two minutes
	// of retention). The ring serves /metrics/history and rides along
	// in incident bundles.
	HistoryEvery   time.Duration
	HistorySamples int
	// ProfileDir, when set, makes manual incident captures (POST
	// /debug/incidents/capture) profile the service: each bundle's
	// CPU and heap profiles are written under it and removed when the
	// incident leaves the ring. Requires Telemetry.
	ProfileDir string
	// Breaker parameterizes the per-arm circuit breakers.
	Breaker resilience.BreakerConfig
	// ControllerConfig, when non-nil, overrides the ensemble controller
	// configuration derived for a request (the default is the batch
	// experiment configuration plus the robustness fault-matrix masking
	// operating point). Tests and soak harnesses use it to shrink the
	// masking windows so degradation trips quickly.
	ControllerConfig func(Request) core.Config
	// Traces overrides the trace cache (nil = trace.Shared()).
	Traces *trace.Cache
	// Chaos, when non-nil, injects faults into the serving path — see
	// the Chaos type. Nil means no injection and no overhead.
	Chaos *Chaos
	// PprofAddr, when non-empty, serves the net/http/pprof handlers on
	// a separate listener (e.g. "127.0.0.1:0"); the server is shut down
	// on drain.
	PprofAddr string
	// Logger receives the operational log lines and the structured
	// request logs carrying the correlation IDs (admission seq, span ID)
	// that also appear in the span trace. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.DefaultAccesses <= 0 {
		c.DefaultAccesses = 20000
	}
	if c.HistoryEvery <= 0 {
		c.HistoryEvery = telemetry.DefaultHistoryEvery
	}
	if c.HistorySamples <= 0 {
		c.HistorySamples = telemetry.DefaultHistorySamples
	}
	if c.Store != nil && c.RunCheckpointEvery <= 0 {
		c.RunCheckpointEvery = 5000
	}
	if c.Traces == nil {
		c.Traces = trace.Shared()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// ArmNames lists the ensemble input prefetchers the service builds,
// in controller arm order — the breaker set is keyed by these names.
func ArmNames() []string { return []string{"bo", "spp", "isb", "domino"} }

// newArm constructs one input prefetcher by name.
func newArm(name string) (prefetch.Prefetcher, error) {
	switch name {
	case "bo":
		return bo.New(bo.Config{}), nil
	case "spp":
		return spp.New(spp.Config{}), nil
	case "isb":
		return isb.New(isb.Config{}), nil
	case "domino":
		return domino.New(domino.Config{}), nil
	}
	return nil, fmt.Errorf("service: unknown arm %q", name)
}

// Controllers lists the accepted request controllers: the ensemble
// controllers, the individual arms, and "none" (baseline).
func Controllers() []string {
	return append([]string{"resemble", "resemble-t", "sbp-e", "none"}, ArmNames()...)
}

// maskProbe is the slice of the controller API the breaker feedback
// uses; both core controllers implement it.
type maskProbe interface {
	ArmMasked(i int) bool
	MaskedArms() int
}

// State is the service lifecycle position.
type State int32

// Lifecycle: Starting (constructed, not yet serving), Ready
// (admitting), Draining (rejecting new work, finishing queued work),
// Stopped (drained).
const (
	Starting State = iota
	Ready
	Draining
	Stopped
)

func (s State) String() string {
	switch s {
	case Starting:
		return "starting"
	case Ready:
		return "ready"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Service is the resilient prefetch-simulation daemon engine.
type Service struct {
	cfg    Config
	runner *sim.Runner

	state atomic.Int32

	queue    *resilience.Queue[*task]
	breakers map[string]*resilience.Breaker

	ln  net.Listener
	srv *http.Server

	pprofAddr string       // bound pprof listen address (empty when off)
	pprofSrv  *http.Server // shut down on drain

	// recorder is non-nil iff telemetry is enabled: the incident flight
	// recorder behind /debug/incidents (the history ring it embeds
	// lives on ops). Nil-safe, so trigger sites never branch.
	recorder *telemetry.FlightRecorder
	ops      *ops.Surface[telemetry.Incident]

	// admitMu serializes admission so queue order equals telemetry
	// commit order.
	admitMu sync.Mutex
	nextSeq uint64
	commits committer

	workers  sync.WaitGroup // worker goroutines
	loops    sync.WaitGroup // watchdog and history loops
	httpDone chan struct{}  // closed when the http server goroutine exits
	stopCh   chan struct{}  // closed on drain to stop the background loops

	busy []workerStatus // per-worker heartbeat slots

	aborted atomic.Bool // Abort severed the HTTP front (chaos harness)

	drainOnce sync.Once
	drainErr  error
	drained   chan struct{} // closed when drain completes

	start time.Time // process-health uptime anchor

	// reg is the single store of the service's counters and gauges:
	// the collector's registry with telemetry on, a private one
	// otherwise. The handles below are resolved from it once in New.
	reg                            *telemetry.Registry
	mAdmitted, mCompleted, mShed   *telemetry.Counter
	mRejected, mFailed, mTimedOut  *telemetry.Counter
	mPanics, mRestarts, mWedged    *telemetry.Counter
	mMaskedRuns                    *telemetry.Counter
	mRunCkpWrites, mRunCkpFailures *telemetry.Counter
	mResumes, mResumeFallbacks     *telemetry.Counter
	mTrips                         map[string]*telemetry.Counter
	mQueueDepth, mReady            *telemetry.Gauge
	// hLatency tracks end-to-end request latency in milliseconds (nil,
	// and so inert, with telemetry off).
	hLatency *telemetry.Histogram
}

// workerStatus is one worker's heartbeat slot for the watchdog.
type workerStatus struct {
	busySince atomic.Int64 // unix nanos; 0 = idle
	reported  atomic.Bool  // wedge already counted for this task
	label     atomic.Value // string: request being served
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	State         string `json:"state"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Admitted      uint64 `json:"requests_admitted"`
	Completed     uint64 `json:"requests_completed"`
	Shed          uint64 `json:"requests_shed"`
	Rejected      uint64 `json:"requests_rejected"`
	Failed        uint64 `json:"requests_failed"`
	TimedOut      uint64 `json:"requests_timed_out"`
	Panics        uint64 `json:"worker_panics"`
	Restarts      uint64 `json:"worker_restarts"`
	Wedged        uint64 `json:"tasks_wedged"`
	MaskedRuns    uint64 `json:"runs_with_masked_arms"`
	// Run-checkpoint accounting against the artifact store: durable
	// snapshots written mid-run, runs warm-started from a snapshot, and
	// requested resumes that fell back to a scratch run because the
	// snapshot was missing, corrupt or for a different run.
	RunCkpWrites    uint64            `json:"run_checkpoint_writes"`
	RunCkpFailures  uint64            `json:"run_checkpoint_failures"`
	Resumes         uint64            `json:"runs_resumed"`
	ResumeFallbacks uint64            `json:"resume_fallbacks"`
	Breakers        map[string]string `json:"breakers"`
	BreakerTrips    map[string]uint64 `json:"breaker_trips"`
}

// New validates the configuration and builds a stopped service; Start
// makes it listen and admit.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.ProfileDir != "" && cfg.Telemetry == nil {
		return nil, fmt.Errorf("service: ProfileDir requires Telemetry (profiles ride in incident bundles)")
	}
	reg := cfg.Telemetry.Registry()
	if reg == nil {
		// No collector: the simulator stays uninstrumented, but the
		// service's own counters still need a home.
		reg = telemetry.NewRegistry()
	}
	s := &Service{
		cfg:      cfg,
		breakers: make(map[string]*resilience.Breaker),
		httpDone: make(chan struct{}),
		stopCh:   make(chan struct{}),
		drained:  make(chan struct{}),
		busy:     make([]workerStatus, cfg.Workers),
		start:    time.Now(),

		reg:              reg,
		mAdmitted:        reg.Counter("service.requests.admitted"),
		mCompleted:       reg.Counter("service.requests.completed"),
		mShed:            reg.Counter("service.requests.shed"),
		mRejected:        reg.Counter("service.requests.rejected"),
		mFailed:          reg.Counter("service.requests.failed"),
		mTimedOut:        reg.Counter("service.requests.timeout"),
		mPanics:          reg.Counter("service.workers.panics"),
		mRestarts:        reg.Counter("service.workers.restarts"),
		mWedged:          reg.Counter("service.workers.wedged"),
		mMaskedRuns:      reg.Counter("service.runs.masked"),
		mRunCkpWrites:    reg.Counter("service.run.checkpoint.writes"),
		mRunCkpFailures:  reg.Counter("service.run.checkpoint.failures"),
		mResumes:         reg.Counter("service.runs.resumed"),
		mResumeFallbacks: reg.Counter("service.runs.resume_fallback"),
		mTrips:           make(map[string]*telemetry.Counter),
		mQueueDepth:      reg.Gauge("service.queue.depth"),
		mReady:           reg.Gauge("service.ready"),
		hLatency:         cfg.Telemetry.Registry().Histogram("service.request.latency.ms"),
	}
	s.runner = sim.NewRunner(sim.DefaultConfig(), sim.WithTelemetry(cfg.Telemetry))
	var history *telemetry.History
	if cfg.Telemetry != nil {
		history = telemetry.NewHistory(cfg.HistorySamples)
		s.recorder = telemetry.NewFlightRecorder(telemetry.RecorderConfig{
			Process:    "resembled",
			ProfileDir: cfg.ProfileDir,
		}, cfg.Telemetry, history)
	}
	s.ops = &ops.Surface[telemetry.Incident]{
		State:        func() string { return s.State().String() },
		Ready:        s.readiness,
		Stats:        func() any { return s.Stats() },
		Drain:        s.Drain,
		DrainTimeout: cfg.DrainTimeout,
		Snapshot:     s.metricsSnapshot,
		Rules: []telemetry.LabelRule{
			{Prefix: "service.breaker.state", Label: "arm"},
			{Prefix: "service.breaker.trips", Label: "arm"},
			{Prefix: "phase.allocs.count", Label: "phase"},
			{Prefix: "phase.allocs.bytes", Label: "phase"},
			{Prefix: "phase.allocs.objects", Label: "phase"},
		},
		History:      history,
		HistoryEvery: cfg.HistoryEvery,
		Recorder:     s.recorder,
		Incidents:    s.recorder.Incidents,
		Bundle:       func(inc telemetry.Incident) telemetry.Incident { return inc },
	}
	for _, arm := range ArmNames() {
		arm := arm
		bcfg := cfg.Breaker
		gauge := reg.Gauge("service.breaker.state." + arm)
		trips := reg.Counter("service.breaker.trips." + arm)
		s.mTrips[arm] = trips
		prev := bcfg.OnTransition
		bcfg.OnTransition = func(from, to resilience.BreakerState) {
			gauge.Set(float64(to))
			if to == resilience.Open {
				trips.Inc()
				s.recorder.Trigger("breaker.trip", arm)
			} else {
				s.recorder.Note("breaker."+to.String(), arm)
			}
			s.cfg.Logger.Info("service: breaker transition", "arm", arm, "from", from.String(), "to", to.String())
			if prev != nil {
				prev(from, to)
			}
		}
		s.breakers[arm] = resilience.NewBreaker(bcfg)
	}
	s.queue = resilience.NewQueue[*task](cfg.QueueDepth, func(depth, capacity int) {
		s.mQueueDepth.Set(float64(depth))
		s.updateReady()
	})
	s.commits.parent = cfg.Telemetry
	s.commits.parked = make(map[uint64]*telemetry.Collector)
	return s, nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Service) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// State returns the lifecycle position.
func (s *Service) State() State { return State(s.state.Load()) }

// PprofAddr returns the bound pprof listen address (empty when
// Config.PprofAddr is unset or before Start).
func (s *Service) PprofAddr() string { return s.pprofAddr }

// Breaker returns the named arm's breaker (nil when unknown) — used
// by the in-process soak assertions.
func (s *Service) Breaker(arm string) *resilience.Breaker { return s.breakers[arm] }

// ready mirrors the /readyz decision: admitting and not saturated.
func (s *Service) ready() bool {
	return s.State() == Ready && !s.queue.Saturated()
}

// updateReady publishes the readiness decision as the service.ready
// gauge, so /readyz flips are visible as a 1→0→1 transition on
// /metrics. Refreshed on every queue depth change, on lifecycle
// transitions, and at scrape time.
func (s *Service) updateReady() {
	v := 0.0
	if s.ready() {
		v = 1
	}
	s.mReady.Set(v)
}

// metricsSnapshot assembles the exposition view: the service registry
// (its counters and gauges, plus the simulator's instruments with
// telemetry on) with the runtime health gauges refreshed and the
// scrape-time gauges the registry does not track overlaid.
func (s *Service) metricsSnapshot() telemetry.RegistrySnapshot {
	telemetry.UpdateRuntimeGauges(s.reg, s.start)
	s.updateReady()
	snap := s.reg.Snapshot()
	snap.Gauges["service.queue.capacity"] = float64(s.queue.Capacity())
	snap.Gauges["service.state"] = float64(s.state.Load())
	// Per-phase allocation attribution (empty unless the collector runs
	// with Config.AllocAttribution): one counter triple per phase,
	// folded into labeled families by the /metrics relabel rules.
	for _, pa := range s.cfg.Telemetry.PhaseAllocs() {
		snap.Counters["phase.allocs.count."+pa.Phase] = pa.Count
		snap.Counters["phase.allocs.bytes."+pa.Phase] = pa.AllocBytes
		snap.Counters["phase.allocs.objects."+pa.Phase] = pa.AllocObjects
	}
	return snap
}

// Stats snapshots the service counters from the registry.
func (s *Service) Stats() Stats {
	st := Stats{
		State:           s.State().String(),
		QueueDepth:      s.queue.Depth(),
		QueueCapacity:   s.queue.Capacity(),
		Admitted:        s.mAdmitted.Value(),
		Completed:       s.mCompleted.Value(),
		Shed:            s.mShed.Value(),
		Rejected:        s.mRejected.Value(),
		Failed:          s.mFailed.Value(),
		TimedOut:        s.mTimedOut.Value(),
		Panics:          s.mPanics.Value(),
		Restarts:        s.mRestarts.Value(),
		Wedged:          s.mWedged.Value(),
		MaskedRuns:      s.mMaskedRuns.Value(),
		RunCkpWrites:    s.mRunCkpWrites.Value(),
		RunCkpFailures:  s.mRunCkpFailures.Value(),
		Resumes:         s.mResumes.Value(),
		ResumeFallbacks: s.mResumeFallbacks.Value(),
		Breakers:        map[string]string{},
		BreakerTrips:    map[string]uint64{},
	}
	for name, b := range s.breakers {
		st.Breakers[name] = b.State().String()
		st.BreakerTrips[name] = s.mTrips[name].Value()
	}
	return st
}

// Start binds the listener and launches the workers, the supervisor
// loops and the HTTP server. It returns once the service is ready.
func (s *Service) Start() error {
	if !s.state.CompareAndSwap(int32(Starting), int32(Ready)) {
		return fmt.Errorf("service: already started")
	}
	s.updateReady()
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.httpDone)
		// http.ErrServerClosed is the normal shutdown path.
		if serr := s.srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			s.cfg.Logger.Error("service: http server", "err", serr)
		}
	}()
	if s.cfg.PprofAddr != "" {
		addr, psrv, perr := telemetry.ServePprof(s.cfg.PprofAddr)
		if perr != nil {
			ln.Close()
			return fmt.Errorf("service: pprof: %w", perr)
		}
		s.pprofAddr, s.pprofSrv = addr, psrv
		s.cfg.Logger.Info("service: pprof listening", "addr", addr)
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.startWorker(i)
	}
	s.recorder.SetProcess("resembled " + s.Addr())
	if s.ops.History != nil {
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			s.ops.RecordHistory(s.stopCh)
		}()
	}
	s.loops.Add(1)
	go s.watchdog()
	s.cfg.Logger.Info("service: ready", "addr", s.Addr(), "workers", s.cfg.Workers, "queue", s.cfg.QueueDepth)
	return nil
}

// Drain gracefully stops the service: admission closes (new requests
// get 503 + Retry-After), queued and in-flight work completes, the
// background loops stop, the state turns Stopped, and then the HTTP
// server shuts down. Idempotent; every caller gets the same result.
func (s *Service) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.state.Store(int32(Draining))
		s.updateReady()
		s.cfg.Logger.Info("service: draining", "queue_depth", s.queue.Depth())
		s.queue.Close()
		close(s.stopCh)

		done := make(chan struct{})
		go func() {
			s.workers.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.drainErr = fmt.Errorf("service: drain aborted: %w", ctx.Err())
		case <-time.After(s.cfg.DrainTimeout):
			s.drainErr = fmt.Errorf("service: drain timed out after %s", s.cfg.DrainTimeout)
		}
		s.loops.Wait()
		// The engine is drained: report it before the HTTP front goes
		// away, so a coordinator polling /healthz sees "stopped" rather
		// than inferring it from a refused connection mid-shutdown.
		s.state.Store(int32(Stopped))

		if s.srv != nil {
			if s.aborted.Load() {
				// Abort already closed the server; Serve has returned.
				<-s.httpDone
			} else {
				shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := s.srv.Shutdown(shutCtx); err != nil && s.drainErr == nil {
					s.drainErr = fmt.Errorf("service: http shutdown: %w", err)
				}
				<-s.httpDone
			}
		}
		if s.pprofSrv != nil {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.pprofSrv.Shutdown(shutCtx); err != nil && s.drainErr == nil {
				s.drainErr = fmt.Errorf("service: pprof shutdown: %w", err)
			}
		}
		s.cfg.Logger.Info("service: stopped", "served", s.mCompleted.Value(),
			"shed", s.mShed.Value(), "failed", s.mFailed.Value())
		close(s.drained)
	})
	<-s.drained
	return s.drainErr
}

// Abort severs the service's HTTP front immediately — the listener
// and every established connection close mid-flight, with no drain
// and no goodbye. From a remote peer's point of view this is
// indistinguishable from a SIGKILL: in-flight requests die with a
// connection error and new connects are refused. The engine behind
// the front (workers, queue, loops) keeps running; the cluster chaos
// harness uses Abort to simulate losing a backend and later calls
// Close to reap the carcass without tripping the goroutine-leak audit.
func (s *Service) Abort() {
	if s.srv == nil || !s.aborted.CompareAndSwap(false, true) {
		return
	}
	s.cfg.Logger.Warn("service: ABORT: http front severed (simulated kill)")
	_ = s.srv.Close()
}
func (s *Service) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout+10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// Drained reports whether the service has fully stopped.
func (s *Service) Drained() <-chan struct{} { return s.drained }
