// Package sim implements the trace-driven memory-hierarchy and core
// timing simulator that stands in for the paper's ChampSim setup
// (DESIGN.md, Substitutions). It models:
//
//   - a three-level data-cache hierarchy (L1D → L2 → LLC) with LRU and
//     prefetch-bit tracking, scaled from the paper's Table V geometry;
//   - a trace-driven out-of-order core: instructions dispatch at the
//     issue width, occupy a finite ROB, and retire in order, so a
//     long-latency miss exposes stall cycles only past the ROB slack —
//     exactly the mechanism that makes prefetching improve IPC;
//   - bounded memory-level parallelism: DRAM requests hold an MSHR slot
//     and respect a minimum inter-request interval (bandwidth);
//   - LLC prefetching with in-flight (pending) fills, so late
//     prefetches hide only part of the miss latency, plus the paper's
//     Figure 11 knobs: controller inference latency and low/high
//     throughput modes.
//
// The prefetch decision logic is abstracted behind Source; individual
// prefetchers and the ensemble controllers all plug in through it.
//
// # Running simulations
//
// Runner is the single entry point. It is constructed once from a
// Config plus functional options and then drives any number of runs;
// every cross-cutting concern — telemetry, checkpoint/resume,
// interrupts, fault injection — is an Option rather than a separate
// RunXxx entry point:
//
//	r := sim.NewRunner(cfg,
//		sim.WithTelemetry(tel),
//		sim.WithCheckpointSink(10_000, save), // save(blob, cursor) persists the bytes
//		sim.WithFaults(plan),
//	)
//	base, _ := r.With(sim.WithBaseline()).Run(tr, nil)
//	res, err := r.Run(tr, controller)
//
// A checkpoint is container bytes handed to the sink; resuming takes
// bytes back (WithResumeBlob). Where the bytes live — the artifact
// store, a file — is the caller's choice.
//
// A Runner is immutable and safe for concurrent use: each Run builds a
// fresh Simulator, so parallel harnesses share one Runner prototype
// and derive per-task variants with With (typically rebinding
// WithTelemetry to a per-task child collector) or WithConfig. The
// experiment harness in internal/experiments follows exactly this
// pattern: experiments.Options carries a []sim.Option that is applied
// verbatim to the Runner, so experiment code and direct simulator use
// share one configuration path.
//
// The legacy entry points (Run, RunBaseline, RunWithTelemetry,
// RunResumable and the RunOpts carrier) have been removed after their
// deprecation release; Runner options are the only way to configure a
// run.
//
// # Hot-path allocation discipline
//
// The steady-state per-record path (step → access → dramIssue /
// issuePrefetches / commitFills) allocates nothing: the MSHR, ROB and
// pending-fill queues are head-indexed FIFOs over preallocated backing
// arrays, and cache insertions return eviction records by value. Code
// added to this path must preserve that property — it is pinned by
// allocation-guard tests and the cmd/bench allocation budgets.
package sim
