package sim

import (
	"sync/atomic"

	"resemble/internal/prefetch"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// settings holds the resolved functional-option values of a Runner.
type settings struct {
	tel        *telemetry.Collector
	ckpSink    func(blob []byte, cursor int) error
	ckpEvery   int
	ckpScope   string
	resumeBlob []byte
	interrupt  *atomic.Bool
	stopAfter  int
	baseline   bool
	faults     func(prefetch.Prefetcher) prefetch.Prefetcher
	spanTrack  string
	spanParent telemetry.SpanRef
}

// Option configures a Runner (see the package documentation for the
// pattern).
type Option func(*settings)

// WithTelemetry reports the run into tel: the collector is attached to
// the simulator and — via telemetry.Attachable — to the source, the
// run is labeled in the manifest, and per-window snapshots are
// emitted. A nil collector is equivalent to omitting the option.
func WithTelemetry(tel *telemetry.Collector) Option {
	return func(s *settings) { s.tel = tel }
}

// WithCheckpointSink hands the serialized checkpoint container to sink
// every `every` trace records and on interrupt — the one checkpoint
// transport: the artifact store and the CLI's checkpoint file are both
// sinks. The boundary condition is on the absolute trace position, so
// a resumed run checkpoints at the same points as an uninterrupted
// one; every <= 0 snapshots only on interrupt. A sink error aborts the
// run; sinks that treat a failed write as lost durability rather than
// a failed run report it themselves and return nil. The sink must not
// retain blob past its return.
func WithCheckpointSink(every int, sink func(blob []byte, cursor int) error) Option {
	return func(s *settings) { s.ckpSink, s.ckpEvery = sink, every }
}

// WithCheckpointScope stamps checkpoints with an opaque run-identity
// scope (e.g. the hash of the originating run request) and, on resume,
// rejects a snapshot whose scope differs. The built-in (trace, source)
// validation cannot see parameters like the RNG seed or the fixed-arm
// fraction; the scope closes that hole so a checkpoint can never
// silently resume a *different* run that shares a trace. Empty scope
// disables the check.
func WithCheckpointScope(scope string) Option {
	return func(s *settings) { s.ckpScope = scope }
}

// WithResumeBlob resumes from serialized checkpoint container bytes
// (fetched from the artifact store, or read from a checkpoint file)
// and continues from their cursor instead of record zero. Any parse or
// validation failure is reported wrapped in ErrBadResume, after which
// the Simulator and source state are unspecified — the caller must
// rebuild fresh components and run from scratch.
func WithResumeBlob(blob []byte) Option {
	return func(s *settings) { s.resumeBlob = blob }
}

// WithBaseline disables prefetching: Run ignores its source argument
// and simulates the raw hierarchy, so baseline and prefetched runs
// share one call shape.
func WithBaseline() Option {
	return func(s *settings) { s.baseline = true }
}

// WithFaults installs a fault-injection plan. The Runner does not
// invoke it on its own — prefetchers are constructed by the caller —
// but Wrap/WrapAll apply it, giving experiment harnesses and direct
// users a single place to route every prefetcher through the plan.
func WithFaults(plan func(prefetch.Prefetcher) prefetch.Prefetcher) Option {
	return func(s *settings) { s.faults = plan }
}

// WithInterrupt polls flag after every record; when it becomes true
// the run hands a final checkpoint to the WithCheckpointSink sink (if
// one is configured)
// and returns ErrInterrupted. Signal handlers set it asynchronously.
func WithInterrupt(flag *atomic.Bool) Option {
	return func(s *settings) { s.interrupt = flag }
}

// WithStopAfter interrupts the run after n records have been processed
// in this session — a deterministic interrupt for tests.
func WithStopAfter(n int) Option {
	return func(s *settings) { s.stopAfter = n }
}

// WithSpanTrack names the span-trace track the run's sim.run span is
// rooted on. Span IDs derive from (track, name, ordinal), so harnesses
// that run tasks concurrently pin one track per task slot (e.g.
// "task:3") to keep span trees identical across parallelism levels.
// Default: "<trace>/<source>".
func WithSpanTrack(track string) Option {
	return func(s *settings) { s.spanTrack = track }
}

// WithSpanParent parents the run's sim.run span under a span owned by
// another collector (e.g. the service's per-request span), correlating
// request → run → window-commit across collector boundaries.
func WithSpanParent(ref telemetry.SpanRef) Option {
	return func(s *settings) { s.spanParent = ref }
}

// Runner is the single entry point for trace-driven simulation. It
// binds a Config to a set of cross-cutting options (telemetry,
// checkpointing, fault injection) so every run — plain, instrumented,
// or resumable — goes through one code path. A Runner is immutable
// after construction and safe for concurrent use by multiple
// goroutines; each Run builds a fresh Simulator.
type Runner struct {
	cfg Config
	set settings
}

// NewRunner builds a Runner. The configuration is validated on each
// Run (New panics on an invalid Config, matching the legacy entry
// points).
func NewRunner(cfg Config, opts ...Option) *Runner {
	r := &Runner{cfg: cfg}
	for _, o := range opts {
		if o != nil {
			o(&r.set)
		}
	}
	return r
}

// Config returns the simulation configuration.
func (r *Runner) Config() Config { return r.cfg }

// Telemetry returns the collector installed by WithTelemetry (nil when
// none; the collector's methods are nil-safe).
func (r *Runner) Telemetry() *telemetry.Collector { return r.set.tel }

// With returns a copy of r with additional options applied — e.g. a
// per-task Runner bound to a child telemetry collector, or a baseline
// variant of an instrumented Runner.
func (r *Runner) With(opts ...Option) *Runner {
	nr := &Runner{cfg: r.cfg, set: r.set}
	for _, o := range opts {
		if o != nil {
			o(&nr.set)
		}
	}
	return nr
}

// WithConfig returns a copy of r running under cfg with the same
// options.
func (r *Runner) WithConfig(cfg Config) *Runner {
	return &Runner{cfg: cfg, set: r.set}
}

// Wrap routes one prefetcher through the WithFaults plan (identity
// when no plan is installed).
func (r *Runner) Wrap(p prefetch.Prefetcher) prefetch.Prefetcher {
	if r.set.faults == nil {
		return p
	}
	return r.set.faults(p)
}

// WrapAll routes every prefetcher through the WithFaults plan,
// in place, and returns the slice.
func (r *Runner) WrapAll(ps []prefetch.Prefetcher) []prefetch.Prefetcher {
	for i, p := range ps {
		ps[i] = r.Wrap(p)
	}
	return ps
}

// Run simulates the trace with the given prefetch source (nil — or any
// source under WithBaseline — for no prefetching) and returns the
// measured-region result. With WithCheckpointSink/WithResumeBlob the
// run snapshots and restores state at record boundaries; on interrupt
// (WithInterrupt/WithStopAfter) it hands a final checkpoint to the sink
// and returns ErrInterrupted wrapped with position info.
//
// Determinism contract: interrupting a run at any record boundary and
// resuming it from the written checkpoint produces byte-identical
// telemetry and results to the uninterrupted run. To keep that
// property the snapshot is taken before the end-of-run counter flush —
// the in-progress window accumulators travel through the checkpoint
// and are flushed exactly once, by whichever session finishes.
func (r *Runner) Run(tr *trace.Trace, src Source) (Result, error) {
	if r.set.baseline {
		src = nil
	}
	s := New(r.cfg)
	name := "none"
	if src != nil {
		name = src.Name()
	}
	if tel := r.set.tel; tel != nil {
		s.AttachTelemetry(tel)
		tel.BeginRun(tr.Name, name)
		if a, ok := src.(telemetry.Attachable); ok {
			a.AttachTelemetry(tel)
		}
	}
	if p, ok := src.(telemetry.ControllerProbe); ok {
		s.probe = p
	}

	var runSpan *telemetry.Span
	if tel := r.set.tel; tel != nil {
		if r.set.spanParent.ID != 0 {
			runSpan = tel.StartSpanUnder(r.set.spanParent, "sim.run")
		} else {
			track := r.set.spanTrack
			if track == "" {
				track = tr.Name + "/" + name
			}
			runSpan = tel.StartSpan(track, "sim.run")
		}
		tel.SetRunSpan(runSpan)
		defer func() {
			tel.SetRunSpan(nil)
			runSpan.End()
		}()
	}

	start := 0
	if r.set.resumeBlob != nil {
		lsp := runSpan.Child("checkpoint.load")
		cursor, err := s.loadCheckpointBlob(r.set.resumeBlob, tr, src, name, r.set.tel, r.set.ckpScope)
		lsp.End()
		if err != nil {
			return Result{}, err
		}
		start = cursor
	}

	ssp := runSpan.Child("sim.simulate")
	if err := s.simulate(tr, src, name, start, r.set); err != nil {
		ssp.End()
		return Result{}, err
	}
	ssp.End()
	if s.winSize > 0 {
		s.flushCounters()
	}
	return s.result(tr, src), nil
}
