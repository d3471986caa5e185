package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resemble/internal/cas"
	"resemble/internal/ops"
	"resemble/internal/resilience"
	"resemble/internal/service"
	"resemble/internal/telemetry"
)

// Config parameterizes a Front. Backends is required; everything else
// has serviceable defaults.
type Config struct {
	// Addr is the front door's listen address (default "127.0.0.1:0").
	Addr string
	// Backends lists the resembled instances ("host:port") the front
	// door routes across. Required, duplicates ignored.
	Backends []string
	// Replicas is the consistent-hash virtual-node count per backend
	// (default DefaultReplicas).
	Replicas int

	// HedgeAfter launches a hedged copy of a request on the next
	// healthy backend when the primary hasn't answered within this
	// duration; the first answer wins. 0 disables hedging. Safe
	// because the deterministic run contract makes every execution of
	// a request byte-equivalent.
	HedgeAfter time.Duration
	// RetryBudget is the shared failover token bucket's capacity
	// (default 10; each failover spends a token, each success refunds
	// a tenth) — a fleet-wide outage costs one attempt per request
	// instead of MaxAttempts.
	RetryBudget float64
	// MaxAttempts bounds how many distinct backends one request may
	// try, hedges included (default: all of them).
	MaxAttempts int

	// MaxInFlight bounds concurrently admitted requests; excess load
	// is shed with 503 + Retry-After before reaching any backend
	// (default 64).
	MaxInFlight int
	// RequestTimeout bounds one request end to end across all
	// failover and hedge attempts (default 120s).
	RequestTimeout time.Duration
	// DrainTimeout bounds the front door's own drain, and each
	// backend's quiesce when DrainBackends is set (default 30s).
	DrainTimeout time.Duration
	// DrainBackends makes Drain quiesce the backends in address order
	// after the front door itself has drained.
	DrainBackends bool

	// Probe parameterizes the active health prober.
	Probe ProbeConfig

	// Store, when non-nil, is the durable artifact store the backends
	// checkpoint their runs into. A failover retry of an interrupted
	// run then resolves the run's last durable checkpoint and forwards
	// the request with resume_from set, so the next backend continues
	// the run instead of restarting it — with byte-identical output,
	// per the determinism contract. Requires the backends to share this
	// store (same directory) and the request to carry an explicit
	// accesses count (the front door cannot hash a run identity it
	// doesn't fully know; accesses == 0 falls back to scratch retries).
	Store *cas.Store

	// Telemetry, when non-nil, its registry carries the front door's
	// counters and it receives every run's windows, merged in
	// admission-seq order (the cluster determinism contract). It also
	// turns on distributed tracing: every dispatch attempt carries a
	// trace-parent header, and the backend's span tree is stitched
	// under the front door's request span (see DESIGN.md §15). Nil
	// disables both; runs are still routed and the counters live in a
	// private registry.
	Telemetry *telemetry.Collector
	// HistoryEvery is the metrics-history sampling period (default
	// telemetry.DefaultHistoryEvery); HistorySamples the ring size
	// (default telemetry.DefaultHistorySamples). Only meaningful with
	// Telemetry set.
	HistoryEvery   time.Duration
	HistorySamples int
	// IncidentMinInterval rate-limits automatic incident captures
	// (default telemetry's 5s; manual captures always fire).
	IncidentMinInterval time.Duration
	// Logger receives the operational log lines and the structured
	// request logs. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 10
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.HistoryEvery <= 0 {
		c.HistoryEvery = telemetry.DefaultHistoryEvery
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Front is the cluster coordinator: one HTTP front door that
// consistent-hashes /v1/run requests across N resembled backends with
// health-gated failover, hedging, bounded admission and seq-ordered
// telemetry merging. See the package doc for the layer map.
type Front struct {
	cfg    Config
	ring   *Ring
	health *Health
	budget *resilience.Budget
	client *http.Client

	ln       net.Listener
	srv      *http.Server
	httpDone chan struct{}

	state atomic.Int32 // service.State

	admitMu sync.Mutex
	nextSeq uint64
	commits *committer

	tokens chan struct{} // in-flight slots

	// reg is the single store of the front door's counters: the
	// collector's registry with telemetry on, a private one otherwise.
	// The handles below are resolved from it once in New. Every hedge
	// launch resolves to exactly one of won (its answer was used), lost
	// (it finished, but after the winner) or cancelled (the winner's
	// return aborted it mid-flight); resumed retries are failover
	// attempts forwarded with resume_from pointing at the interrupted
	// run's last durable checkpoint (requires Config.Store).
	reg                             *telemetry.Registry
	mAdmitted, mCompleted, mFailed  *telemetry.Counter
	mShed, mRejected                *telemetry.Counter
	mFailovers, mHedges, mHedgeWins *telemetry.Counter
	mHedgeLost, mHedgeCancelled     *telemetry.Counter
	mRetriesDenied, mResumedRetries *telemetry.Counter
	// Per-backend counters, keyed by backend address: successful
	// responses, failures there that moved the request on, and hedge
	// and failover attempts launched there.
	mServed, mBackendFailovers map[string]*telemetry.Counter
	mBackendHedges, mRetries   map[string]*telemetry.Counter

	// recorder is non-nil iff Telemetry is configured.
	recorder *telemetry.FlightRecorder
	ops      *ops.Surface[FleetIncident]
	histStop chan struct{}
	histDone chan struct{}

	fleetMu sync.Mutex
	fleet   []FleetIncident

	drainOnce sync.Once
	drainErr  error
	drained   chan struct{}

	start time.Time
}

// fleetIncidentCap bounds the front door's in-memory fleet-bundle ring.
const fleetIncidentCap = 16

// New validates the configuration and builds a stopped front door;
// Start makes it listen and route.
func New(cfg Config) (*Front, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	reg := cfg.Telemetry.Registry()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	f := &Front{
		cfg:    cfg,
		ring:   NewRing(cfg.Replicas),
		budget: &resilience.Budget{Capacity: cfg.RetryBudget, Ratio: 0.1},
		// Per-request contexts bound the round trips. The dedicated
		// transport keeps the front's keep-alive pool out of
		// http.DefaultTransport: sharing a pool with other backend
		// clients (the health prober, tests) races their dials, and a
		// dial that loses the race parks a connection the backend sees
		// as new-but-silent — which srv.Shutdown cannot reap and stalls
		// on until its deadline.
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		httpDone: make(chan struct{}),
		tokens:   make(chan struct{}, cfg.MaxInFlight),
		drained:  make(chan struct{}),
		commits:  newCommitter(cfg.Telemetry),
		start:    time.Now(),

		reg:               reg,
		mAdmitted:         reg.Counter("cluster.requests.admitted"),
		mCompleted:        reg.Counter("cluster.requests.completed"),
		mFailed:           reg.Counter("cluster.requests.failed"),
		mShed:             reg.Counter("cluster.requests.shed"),
		mRejected:         reg.Counter("cluster.requests.rejected"),
		mFailovers:        reg.Counter("cluster.failovers"),
		mHedges:           reg.Counter("cluster.hedges"),
		mHedgeWins:        reg.Counter("cluster.hedge.wins"),
		mHedgeLost:        reg.Counter("cluster.hedge.lost"),
		mHedgeCancelled:   reg.Counter("cluster.hedge.cancelled"),
		mRetriesDenied:    reg.Counter("cluster.retries.denied"),
		mResumedRetries:   reg.Counter("cluster.failover.resumes"),
		mServed:           make(map[string]*telemetry.Counter),
		mBackendFailovers: make(map[string]*telemetry.Counter),
		mBackendHedges:    make(map[string]*telemetry.Counter),
		mRetries:          make(map[string]*telemetry.Counter),
	}
	for _, b := range cfg.Backends {
		f.ring.Add(b)
		f.mServed[b] = reg.Counter("cluster.backend.served." + b)
		f.mBackendFailovers[b] = reg.Counter("cluster.backend.failovers." + b)
		f.mBackendHedges[b] = reg.Counter("cluster.backend.hedges." + b)
		f.mRetries[b] = reg.Counter("cluster.backend.retries." + b)
	}
	probe := cfg.Probe
	onTransition := probe.OnTransition
	probe.OnTransition = func(backend string, from, to resilience.BreakerState) {
		cfg.Logger.Info("cluster: backend transition", "backend", backend, "from", from.String(), "to", to.String())
		if onTransition != nil {
			onTransition(backend, from, to)
		}
	}
	f.health = NewHealth(f.ring.Backends(), probe)
	var history *telemetry.History
	if cfg.Telemetry != nil {
		// Front spans carry the "front" process label in stitched traces;
		// adopted backend spans are stamped per backend at adoption.
		cfg.Telemetry.SetProc("front")
		history = telemetry.NewHistory(cfg.HistorySamples)
		f.recorder = telemetry.NewFlightRecorder(telemetry.RecorderConfig{
			Process:     "resemblefront",
			MinInterval: cfg.IncidentMinInterval,
		}, cfg.Telemetry, history)
	}
	f.ops = &ops.Surface[FleetIncident]{
		State:        func() string { return f.State().String() },
		Ready:        f.readiness,
		Stats:        func() any { return f.Stats() },
		Drain:        f.Drain,
		DrainTimeout: cfg.DrainTimeout,
		Snapshot:     f.metricsSnapshot,
		Rules: []telemetry.LabelRule{
			{Prefix: "cluster.backend.state", Label: "backend"},
			{Prefix: "cluster.backend.queue.depth", Label: "backend"},
			{Prefix: "cluster.backend.ejections", Label: "backend"},
			{Prefix: "cluster.backend.transitions", Label: "backend"},
			{Prefix: "cluster.backend.probe.failures", Label: "backend"},
			{Prefix: "cluster.backend.served", Label: "backend"},
			{Prefix: "cluster.backend.failovers", Label: "backend"},
			{Prefix: "cluster.backend.hedges", Label: "backend"},
			{Prefix: "cluster.backend.retries", Label: "backend"},
		},
		History:      history,
		HistoryEvery: cfg.HistoryEvery,
		Recorder:     f.recorder,
		Incidents:    f.FleetIncidents,
		Bundle:       f.assembleFleetBundle,
	}
	return f, nil
}

// Addr returns the bound listen address (empty before Start).
func (f *Front) Addr() string {
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

// State returns the lifecycle position (service.State semantics).
func (f *Front) State() service.State { return service.State(f.state.Load()) }

// Health exposes the prober for soak/test assertions.
func (f *Front) Health() *Health { return f.health }

// Ring exposes the routing ring for soak/test assertions.
func (f *Front) Ring() *Ring { return f.ring }

// Start binds the listener, launches the HTTP server and the health
// prober, and begins admitting.
func (f *Front) Start() error {
	if !f.state.CompareAndSwap(int32(service.Starting), int32(service.Ready)) {
		return errors.New("cluster: front already started")
	}
	ln, err := net.Listen("tcp", f.cfg.Addr)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	f.ln = ln
	f.srv = &http.Server{Handler: f.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(f.httpDone)
		if serr := f.srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			f.cfg.Logger.Error("cluster: http server", "err", serr)
		}
	}()
	f.health.Start()
	f.recorder.SetProcess("resemblefront " + f.Addr())
	if f.ops.History != nil {
		f.histStop = make(chan struct{})
		f.histDone = make(chan struct{})
		go func() {
			defer close(f.histDone)
			f.ops.RecordHistory(f.histStop, nil)
		}()
	}
	f.cfg.Logger.Info("cluster: front door ready", "addr", f.Addr(), "backends", f.ring.Backends())
	return nil
}

// Handler returns the front door's HTTP API:
//
//	POST /v1/run  route a simulation to its backend (failover/hedge)
//
// plus the shared ops surface (see ops.Surface.Register): front-door
// /healthz and /readyz (503 draining/overloaded), /stats (front
// counters + per-backend health), the fleet-wide /metrics and its
// /metrics/history ring, POST /drain, and the flight-recorder
// endpoints — /debug/incidents lists assembled fleet bundles, POST
// /debug/incidents/capture assembles one synchronously, and
// /debug/flightrec is the front door's own recorder snapshot.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", f.handleRun)
	f.ops.Register(mux)
	return mux
}

// RouteKey derives the consistent-hash key from the request's
// workload/trace identity — controller excluded on purpose, so every
// run over the same trace lands on the backend whose trace cache
// already holds it. Exported so harnesses can ask the ring who owns a
// request.
func RouteKey(req service.Request) string {
	return fmt.Sprintf("%s|%d|%d", req.Workload, req.Accesses, req.Seed)
}

// handleRun admits, routes and answers one simulation request.
func (f *Front) handleRun(w http.ResponseWriter, r *http.Request) {
	if f.State() != service.Ready {
		f.mRejected.Inc()
		ops.Unavailable(w, service.ReadyReasonDraining, "front door is draining")
		return
	}
	select {
	case f.tokens <- struct{}{}:
	default:
		f.mShed.Inc()
		f.recorder.Trigger("shed.burst",
			fmt.Sprintf("front door at %d in-flight requests", cap(f.tokens)))
		ops.Unavailable(w, service.ReadyReasonOverloaded,
			fmt.Sprintf("front door at %d in-flight requests: shed", cap(f.tokens)))
		return
	}
	defer func() { <-f.tokens }()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		ops.WriteJSON(w, http.StatusBadRequest, service.Response{Error: "bad request body: " + err.Error()})
		return
	}
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		ops.WriteJSON(w, http.StatusBadRequest, service.Response{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Workload == "" || req.Controller == "" {
		ops.WriteJSON(w, http.StatusBadRequest, service.Response{Error: "workload and controller are required"})
		return
	}
	// Windows ride back for the admission-seq merge whenever the front
	// door carries a collector, and spans ride back for trace
	// stitching; the client only sees either if it asked.
	clientWantsWindows := req.ReturnWindows
	clientWantsSpans := req.ReturnSpans
	if f.cfg.Telemetry != nil {
		req.ReturnWindows = true
		req.ReturnSpans = true
	}
	payload, err := json.Marshal(req)
	if err != nil {
		ops.WriteJSON(w, http.StatusBadRequest, service.Response{Error: err.Error()})
		return
	}

	began := time.Now()
	seq := f.admit()
	// The request root span anchors the whole cross-process trace: its
	// track is globally unique per admission, every dispatch attempt is
	// a child, and the winning backend's shipped tree is adopted under
	// the attempt that produced it.
	rsp := f.cfg.Telemetry.StartSpan(fmt.Sprintf("freq:%04d", seq), "request")
	defer rsp.End()
	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.RequestTimeout)
	defer cancel()
	a := f.dispatch(ctx, RouteKey(req), req, payload, rsp)

	if a.status == http.StatusOK {
		f.commits.commit(seq, a.resp.Windows)
		f.mCompleted.Inc()
		f.mServed[a.backend].Inc()
		f.adoptAttemptSpans(a)
		if !clientWantsWindows {
			a.resp.Windows = nil
		}
		if !clientWantsSpans {
			a.resp.Spans = nil
		}
		f.cfg.Logger.Info("request routed",
			"seq", seq, "backend", a.backend, "hedged", a.hedged,
			"workload", req.Workload, "controller", req.Controller,
			"dur_ms", float64(time.Since(began))/float64(time.Millisecond))
		ops.WriteJSON(w, http.StatusOK, a.resp)
		return
	}
	// Terminal failure: the seq slot still advances so later runs merge.
	f.commits.commit(seq, nil)
	f.mFailed.Inc()
	status := a.status
	switch {
	case status == 0 && errors.Is(a.err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case status == 0:
		status = http.StatusBadGateway
	}
	resp := a.resp
	if resp.Error == "" && a.err != nil {
		resp.Error = a.err.Error()
	}
	if !clientWantsSpans {
		resp.Spans = nil
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", ops.RetryAfter)
	}
	f.cfg.Logger.Warn("request failed",
		"seq", seq, "backend", a.backend, "status", status, "err", resp.Error)
	ops.WriteJSON(w, status, resp)
}

// admit assigns the admission sequence number that fixes the request's
// place in the merged telemetry stream.
func (f *Front) admit() uint64 {
	f.admitMu.Lock()
	defer f.admitMu.Unlock()
	seq := f.nextSeq
	f.nextSeq++
	f.mAdmitted.Inc()
	return seq
}

// attempt is the outcome of one backend try.
type attempt struct {
	backend string
	hedged  bool
	status  int
	resp    service.Response
	err     error
	// span is the front door's view of this try (nil without
	// telemetry): a child of the request span, named "attempt",
	// "attempt.resume" (failover with a durable checkpoint) or "hedge".
	span *telemetry.Span
}

func (a attempt) ok() bool { return a.err == nil && a.status == http.StatusOK }

// terminal reports a response that must not be retried: the backend
// answered authoritatively with a client error.
func (a attempt) terminal() bool {
	return a.err == nil && a.status >= 400 && a.status < 500
}

// dispatch routes one request through the failover/hedge state
// machine: the key's ring sequence (health-filtered) is tried in
// order; a failed attempt fails over to the next backend if the retry
// budget allows, and a silent primary is hedged on the next backend
// after HedgeAfter. The first success wins and cancels the rest.
// With a shared artifact store, each failover retry forwards the
// request with resume_from set to the interrupted run's last durable
// checkpoint, so the next backend continues instead of restarting.
func (f *Front) dispatch(ctx context.Context, key string, req service.Request, payload []byte, rsp *telemetry.Span) attempt {
	order := f.health.Order(f.ring.Sequence(key))
	if f.cfg.MaxAttempts > 0 && len(order) > f.cfg.MaxAttempts {
		order = order[:f.cfg.MaxAttempts]
	}
	if len(order) == 0 {
		return attempt{status: http.StatusServiceUnavailable,
			resp: service.Response{Error: "no backends configured"}}
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps the losers
	results := make(chan attempt, len(order))
	launched := 0
	outstanding := 0
	// Losers still in flight when dispatch returns are drained in the
	// background: their spans end and their hedge outcomes are
	// accounted even though nobody waits for them. Registered after
	// cancel so it runs first; the cancel then aborts the losers.
	defer func() {
		if n := outstanding; n > 0 {
			go func() {
				for i := 0; i < n; i++ {
					a := <-results
					a.span.End()
					f.accountHedge(a, false)
				}
			}()
		}
	}()
	launch := func(hedged bool) {
		b := order[launched]
		launched++
		p := payload
		name := "attempt"
		switch {
		case hedged:
			name = "hedge"
			f.mHedges.Inc()
			f.mBackendHedges[b].Inc()
			f.recorder.Note("hedge", b)
		case launched > 1:
			f.mRetries[b].Inc()
			// A failover retry means the previous backend's attempt died
			// mid-run; resolve its freshest durable checkpoint (the
			// checkpoint sink fires at interrupt and periodically, so one
			// usually exists) and hand the run over where it left off.
			if rp := f.resumePayload(req); rp != nil {
				p = rp
				name = "attempt.resume"
			}
		}
		sp := rsp.Child(name)
		go func() { results <- f.tryBackend(actx, b, p, sp, hedged) }()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if f.cfg.HedgeAfter > 0 {
		ht := time.NewTimer(f.cfg.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}

	outstanding = 1
	var last attempt
	for {
		select {
		case a := <-results:
			outstanding--
			a.span.End()
			f.accountHedge(a, a.ok())
			if a.ok() {
				f.budget.Refund()
				if a.hedged {
					f.mHedgeWins.Inc()
				}
				return a
			}
			if a.terminal() {
				return a
			}
			last = a
			if launched < len(order) {
				f.mBackendFailovers[a.backend].Inc()
				if f.budget.Spend() {
					f.mFailovers.Inc()
					if inc := f.recorder.Trigger("failover",
						fmt.Sprintf("backend %s failed, retrying on %s", a.backend, order[launched])); inc != nil {
						go f.assembleFleetBundle(*inc)
					}
					launch(false)
					outstanding++
					continue
				}
				f.mRetriesDenied.Inc()
				if inc := f.recorder.Trigger("retry.budget.exhausted",
					fmt.Sprintf("no tokens left to retry past %s", a.backend)); inc != nil {
					go f.assembleFleetBundle(*inc)
				}
				f.cfg.Logger.Warn("cluster: retry budget exhausted", "backend", a.backend)
			}
			if outstanding == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(order) {
				launch(true)
				outstanding++
			}
		case <-actx.Done():
			if last.backend != "" {
				return last
			}
			return attempt{err: actx.Err()}
		}
	}
}

// resumePayload re-marshals req with resume_from set to the run's
// last durable checkpoint in the shared store. nil (scratch retry)
// when there is no store, the run identity is not fully known
// (accesses omitted — the backend default is the backend's business),
// or no checkpoint of this run is durable yet.
func (f *Front) resumePayload(req service.Request) []byte {
	if f.cfg.Store == nil || req.Accesses <= 0 {
		return nil
	}
	key := service.RunKey(req)
	id, ok := f.cfg.Store.Resolve(service.CheckpointLatestTag(key))
	if !ok {
		// The run died before its first durable checkpoint: the retry
		// replays from record zero, which determinism makes equivalent.
		f.cfg.Logger.Info("cluster: failover retries run from scratch (no durable checkpoint)", "run", key[:12])
		return nil
	}
	req.ResumeFrom = id.String()
	p, err := json.Marshal(req)
	if err != nil {
		return nil
	}
	f.mResumedRetries.Inc()
	f.cfg.Logger.Info("cluster: failover resumes run from checkpoint", "run", key[:12], "checkpoint", req.ResumeFrom[:12])
	return p
}

// tryBackend performs one backend round trip. Transport failures and
// timeouts feed the backend's breaker; a plain HTTP answer of any
// status reports healthy (the server is alive — readiness is the
// prober's business). A context cancellation reports nothing: losing
// a hedge race is not a health signal.
func (f *Front) tryBackend(ctx context.Context, backend string, payload []byte, sp *telemetry.Span, hedged bool) attempt {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+backend+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		return attempt{backend: backend, hedged: hedged, span: sp, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	// The trace-parent header roots the backend's span tree under this
	// attempt; the backend ships the tree back in Response.Spans.
	if v := telemetry.FormatSpanRef(sp.Ref()); v != "" {
		req.Header.Set(telemetry.TraceParentHeader, v)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			f.health.Report(backend, false)
		}
		return attempt{backend: backend, hedged: hedged, span: sp, err: fmt.Errorf("backend %s: %w", backend, err)}
	}
	defer resp.Body.Close()
	var out service.Response
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&out); derr != nil {
		// Severed mid-body: a killed backend from the client's side.
		if !errors.Is(derr, context.Canceled) {
			f.health.Report(backend, false)
		}
		return attempt{backend: backend, hedged: hedged, span: sp,
			err: fmt.Errorf("backend %s: truncated response: %w", backend, derr)}
	}
	f.health.Report(backend, true)
	return attempt{backend: backend, hedged: hedged, span: sp, status: resp.StatusCode, resp: out}
}

// accountHedge resolves a hedge launch's outcome counter. won means the
// attempt's answer was used (already counted as a hedge win); a loser
// either finished uselessly (lost) or was aborted by the winner's
// cancel (cancelled).
func (f *Front) accountHedge(a attempt, won bool) {
	if !a.hedged || won {
		return
	}
	if errors.Is(a.err, context.Canceled) {
		f.mHedgeCancelled.Inc()
		return
	}
	f.mHedgeLost.Inc()
}

// adoptAttemptSpans stitches the winning backend's shipped span tree
// into the front door's collector: anchored to the attempt span's
// start (normalizing clock skew between processes — the shipped
// timestamps are on the backend's process epoch, which is unrelated to
// ours), stamped with the backend's process label, and adopted
// verbatim otherwise. Span IDs need no translation because both sides
// derive them from the same FNV-1a scheme rooted at the attempt ID.
func (f *Front) adoptAttemptSpans(a attempt) {
	if f.cfg.Telemetry == nil || a.span == nil || len(a.resp.Spans) == 0 {
		return
	}
	spans := telemetry.AnchorSpans(a.resp.Spans, a.span.Ref().ID, a.span.StartUS())
	for i := range spans {
		if spans[i].Proc == "" {
			spans[i].Proc = "backend " + a.backend
		}
	}
	f.cfg.Telemetry.AdoptSpans(spans)
}

// readiness is the front door's /readyz decision: 503 while draining
// or at the in-flight limit, with the same reasons the backends use.
func (f *Front) readiness() (int, any) {
	unavailable := func(reason, msg string) (int, any) {
		return http.StatusServiceUnavailable, map[string]string{
			"status": "unavailable", "reason": reason, "error": msg,
		}
	}
	switch {
	case f.State() != service.Ready:
		return unavailable(service.ReadyReasonDraining, "front door is draining")
	case len(f.tokens) >= cap(f.tokens):
		return unavailable(service.ReadyReasonOverloaded, "front door in-flight limit reached")
	}
	return http.StatusOK, map[string]any{
		"status":           "ok",
		"in_flight":        len(f.tokens),
		"max_in_flight":    cap(f.tokens),
		"healthy_backends": f.health.HealthyCount(),
		"backends":         f.ring.Len(),
	}
}

// Stats is the front door's JSON counter view.
type Stats struct {
	State     string `json:"state"`
	Admitted  uint64 `json:"requests_admitted"`
	Completed uint64 `json:"requests_completed"`
	Failed    uint64 `json:"requests_failed"`
	Shed      uint64 `json:"requests_shed"`
	Rejected  uint64 `json:"requests_rejected"`
	Failovers uint64 `json:"failovers"`
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// HedgeLost counts hedges that finished after the winner;
	// HedgeCancelled counts hedges aborted mid-flight by the winner's
	// return. hedges == hedge_wins + hedge_lost + hedge_cancelled once
	// everything in flight has drained.
	HedgeLost      uint64 `json:"hedge_lost"`
	HedgeCancelled uint64 `json:"hedge_cancelled"`
	RetriesDenied  uint64 `json:"retries_denied"`
	// ResumedRetries counts failover attempts that carried resume_from
	// (a shared store held a durable checkpoint of the dying run).
	ResumedRetries uint64          `json:"resumed_retries"`
	RetryTokens    float64         `json:"retry_tokens"`
	MergePending   int             `json:"merge_pending"`
	Backends       []BackendStatus `json:"backends"`
}

// Stats snapshots the front counters (from the registry) and
// per-backend health.
func (f *Front) Stats() Stats {
	return Stats{
		State:          f.State().String(),
		Admitted:       f.mAdmitted.Value(),
		Completed:      f.mCompleted.Value(),
		Failed:         f.mFailed.Value(),
		Shed:           f.mShed.Value(),
		Rejected:       f.mRejected.Value(),
		Failovers:      f.mFailovers.Value(),
		Hedges:         f.mHedges.Value(),
		HedgeWins:      f.mHedgeWins.Value(),
		HedgeLost:      f.mHedgeLost.Value(),
		HedgeCancelled: f.mHedgeCancelled.Value(),
		RetriesDenied:  f.mRetriesDenied.Value(),
		ResumedRetries: f.mResumedRetries.Value(),
		RetryTokens:    f.budget.Tokens(),
		MergePending:   f.commits.pending(),
		Backends:       f.health.Status(),
	}
}

// metricsSnapshot assembles the fleet-wide registry snapshot that
// backs both the OpenMetrics exposition and the metrics-history
// sampler: the front door's registry (its counters, per-backend ones
// included) with the runtime health gauges refreshed, plus the
// scrape-time gauges and the prober's per-backend health families
// (state, reported queue depth, ejections, transitions, probe
// failures), which live in the prober rather than the registry.
func (f *Front) metricsSnapshot() telemetry.RegistrySnapshot {
	telemetry.UpdateRuntimeGauges(f.reg, f.start)
	snap := f.reg.Snapshot()
	// Aliases under the names operators alert on: hedge.won completes
	// the won/lost/cancelled outcome triple that sums to hedges, and
	// retry.budget.exhausted (cluster_retry_budget_exhausted_total)
	// marks each failover the shared token bucket refused — the moment
	// the fleet stopped amplifying what looks like a correlated outage.
	snap.Counters["cluster.hedge.won"] = snap.Counters["cluster.hedge.wins"]
	snap.Counters["cluster.retry.budget.exhausted"] = snap.Counters["cluster.retries.denied"]
	snap.Gauges["cluster.retry.budget"] = f.budget.Tokens()
	snap.Gauges["cluster.inflight"] = float64(len(f.tokens))
	snap.Gauges["cluster.inflight.max"] = float64(cap(f.tokens))
	snap.Gauges["cluster.merge.pending"] = float64(f.commits.pending())
	snap.Gauges["cluster.state"] = float64(f.state.Load())
	ready := 0.0
	if f.State() == service.Ready && len(f.tokens) < cap(f.tokens) {
		ready = 1
	}
	snap.Gauges["cluster.ready"] = ready
	snap.Gauges["cluster.backends.healthy"] = float64(f.health.HealthyCount())
	for _, bs := range f.health.Status() {
		snap.Gauges["cluster.backend.state."+bs.Backend] = breakerStateValue(bs.State)
		snap.Gauges["cluster.backend.queue.depth."+bs.Backend] = float64(bs.QueueDepth)
		snap.Counters["cluster.backend.ejections."+bs.Backend] = bs.Ejections
		snap.Counters["cluster.backend.transitions."+bs.Backend] = bs.Transitions
		snap.Counters["cluster.backend.probe.failures."+bs.Backend] = bs.Failures
	}
	return snap
}

// breakerStateValue maps a breaker state name to the gauge encoding
// the service layer uses (closed 0, open 1, half-open 2).
func breakerStateValue(name string) float64 {
	switch name {
	case resilience.Open.String():
		return float64(resilience.Open)
	case resilience.HalfOpen.String():
		return float64(resilience.HalfOpen)
	default:
		return float64(resilience.Closed)
	}
}

// BackendRing is one backend's contribution to a fleet incident
// bundle: its flight-recorder snapshot, or the error that kept the
// front door from pulling it (a killed backend is itself evidence).
type BackendRing struct {
	Error    string                      `json:"error,omitempty"`
	Snapshot *telemetry.RecorderSnapshot `json:"snapshot,omitempty"`
}

// FleetIncident is a fleet-wide incident bundle: the front door's own
// incident (trigger, breadcrumbs, spans, pre-incident metrics history)
// plus every backend's flight-recorder ring pulled at capture time.
type FleetIncident struct {
	Incident telemetry.Incident     `json:"incident"`
	Backends map[string]BackendRing `json:"backends"`
}

// assembleFleetBundle pulls every backend's recorder snapshot and
// parks the assembled bundle in the bounded fleet ring. Called in the
// background on automatic triggers and synchronously on manual
// capture.
func (f *Front) assembleFleetBundle(inc telemetry.Incident) FleetIncident {
	bundle := FleetIncident{Incident: inc, Backends: make(map[string]BackendRing)}
	for _, b := range f.ring.Backends() {
		bundle.Backends[b] = f.pullBackendRing(b)
	}
	f.fleetMu.Lock()
	f.fleet = append(f.fleet, bundle)
	if len(f.fleet) > fleetIncidentCap {
		f.fleet = f.fleet[len(f.fleet)-fleetIncidentCap:]
	}
	f.fleetMu.Unlock()
	return bundle
}

func (f *Front) pullBackendRing(b string) BackendRing {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+b+"/debug/flightrec", nil)
	if err != nil {
		return BackendRing{Error: err.Error()}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return BackendRing{Error: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return BackendRing{Error: fmt.Sprintf("backend answered %d", resp.StatusCode)}
	}
	var snap telemetry.RecorderSnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&snap); err != nil {
		return BackendRing{Error: "decoding snapshot: " + err.Error()}
	}
	return BackendRing{Snapshot: &snap}
}

// FleetIncidents returns the assembled bundles, oldest first.
func (f *Front) FleetIncidents() []FleetIncident {
	f.fleetMu.Lock()
	defer f.fleetMu.Unlock()
	return append([]FleetIncident(nil), f.fleet...)
}

// Drain gracefully stops the front door: admission closes (new
// requests get 503 + Retry-After), in-flight requests finish (the
// HTTP shutdown waits for them), the prober stops, and — when
// DrainBackends is set — every backend is quiesced in address order.
// Idempotent; every caller gets the same result.
func (f *Front) Drain(ctx context.Context) error {
	f.drainOnce.Do(func() {
		f.state.Store(int32(service.Draining))
		f.cfg.Logger.Info("cluster: draining front door", "in_flight", len(f.tokens))
		if f.srv != nil {
			shutCtx, cancel := context.WithTimeout(context.Background(), f.cfg.DrainTimeout)
			defer cancel()
			if err := f.srv.Shutdown(shutCtx); err != nil {
				f.drainErr = fmt.Errorf("cluster: http shutdown: %w", err)
			}
			<-f.httpDone
		}
		f.health.Stop()
		if f.histStop != nil {
			close(f.histStop)
			<-f.histDone
		}
		if f.cfg.DrainBackends {
			f.drainBackends(ctx)
		}
		// Release pooled keep-alive conns so backend shutdowns that
		// outlive the front don't wait on our idle sockets.
		f.client.CloseIdleConnections()
		f.state.Store(int32(service.Stopped))
		f.cfg.Logger.Info("cluster: front door stopped", "served", f.mCompleted.Value(),
			"failed", f.mFailed.Value(), "failovers", f.mFailovers.Value(), "hedges", f.mHedges.Value())
		close(f.drained)
	})
	<-f.drained
	return f.drainErr
}

// drainBackends quiesces the fleet in address order: POST /drain to
// each backend, then wait for it to report stopped (or go away) before
// moving to the next — no thundering simultaneous shutdown.
func (f *Front) drainBackends(ctx context.Context) {
	backends := f.ring.Backends()
	sort.Strings(backends)
	for _, b := range backends {
		f.cfg.Logger.Info("cluster: draining backend", "backend", b)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+b+"/drain", nil)
		if err != nil {
			continue
		}
		if resp, derr := f.client.Do(req); derr != nil {
			f.cfg.Logger.Warn("cluster: backend drain request failed; skipping", "backend", b, "err", derr)
			continue
		} else {
			resp.Body.Close()
		}
		deadline := time.Now().Add(f.cfg.DrainTimeout)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			resp, herr := f.client.Get("http://" + b + "/healthz")
			if herr != nil {
				break // server gone: drained all the way down
			}
			var body struct {
				State string `json:"state"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if body.State == service.Stopped.String() {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		f.cfg.Logger.Info("cluster: backend quiesced", "backend", b)
	}
}

// Close drains with the configured drain timeout.
func (f *Front) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.DrainTimeout+10*time.Second)
	defer cancel()
	return f.Drain(ctx)
}

// Drained reports whether the front door has fully stopped.
func (f *Front) Drained() <-chan struct{} { return f.drained }
