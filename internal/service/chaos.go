package service

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"resemble/internal/faults"
	"resemble/internal/prefetch"
	"resemble/internal/trace"
)

// Chaos injects faults into the serving path for the chaos/soak
// harness (cmd/resembled -soak and the service chaos tests). Each
// field targets one dependency the resilience layer is supposed to
// contain:
//
//   - StuckArm exercises the accuracy-masking → circuit-breaker
//     pipeline: the named ensemble arm is wrapped in a faults.Stuck
//     prefetcher, masking flags it within a run, and consecutive
//     masked runs trip its breaker;
//   - CorruptTraces exercises input validation: each simulated trace
//     has this fraction of records corrupted before the run;
//   - CheckpointFailures exercises durability degradation: the first N
//     run checkpoints bound for the artifact store fail, which must
//     cost durability (run_checkpoint_failures) but never correctness;
//   - SlowHandler exercises deadline propagation and load shedding:
//     every request stalls this long before simulating, backing the
//     queue up under load;
//   - PanicEvery exercises the supervision tree: every Nth simulation
//     panics inside the worker, which must answer 500, restart with
//     backoff, and keep serving.
//
// The zero value injects nothing. A Chaos value is safe for
// concurrent use by all workers.
type Chaos struct {
	// StuckArm names the ensemble arm to degrade ("" = none).
	StuckArm string
	// FaultSeed drives the injected faults' randomness.
	FaultSeed int64
	// FaultStart delays the stuck fault this many accesses into each
	// run (0 = immediately).
	FaultStart int
	// CorruptTraces is the per-record corruption rate in [0,1].
	CorruptTraces float64
	// CheckpointFailures fails this many run-checkpoint writes to the
	// artifact store before letting writes through.
	CheckpointFailures int32
	// SlowHandler stalls every request this long before simulating.
	SlowHandler time.Duration
	// PanicEvery panics every Nth simulation (0 = never).
	PanicEvery int

	ckpFails atomic.Int32
	runs     atomic.Uint64
	stopped  atomic.Bool
}

// Stop ends the chaos window: subsequent requests and checkpoint
// writes run fault-free, letting the soak harness assert that the
// service heals (breakers close, readiness returns, checkpoints land).
func (c *Chaos) Stop() {
	if c != nil {
		c.stopped.Store(true)
	}
}

// active reports whether injection is still on.
func (c *Chaos) active() bool { return c != nil && !c.stopped.Load() }

// wrapArm degrades the named arm; other arms pass through.
func (c *Chaos) wrapArm(name string, p prefetch.Prefetcher) prefetch.Prefetcher {
	if !c.active() || c.StuckArm != name {
		return p
	}
	return faults.Wrap(p, faults.Config{
		Mode:  faults.Stuck,
		Seed:  c.FaultSeed,
		Start: c.FaultStart,
	})
}

// wrapTrace corrupts a fraction of the trace records.
func (c *Chaos) wrapTrace(tr *trace.Trace) *trace.Trace {
	if !c.active() || c.CorruptTraces <= 0 {
		return tr
	}
	return faults.CorruptRecords(tr, c.CorruptTraces, c.FaultSeed)
}

// errInjectedCheckpoint is the failure checkpointFault injects.
var errInjectedCheckpoint = errors.New("chaos: injected run-checkpoint write failure")

// checkpointFault fails the first CheckpointFailures run-checkpoint
// writes before they reach the store, so the store never sees a torn
// write and the run carries on without that snapshot.
func (c *Chaos) checkpointFault() error {
	if !c.active() || c.ckpFails.Add(1) > c.CheckpointFailures {
		return nil
	}
	return errInjectedCheckpoint
}

// shouldPanic reports whether this simulation is the unlucky Nth.
func (c *Chaos) shouldPanic() bool {
	if !c.active() || c.PanicEvery <= 0 {
		return false
	}
	return c.runs.Add(1)%uint64(c.PanicEvery) == 0
}

// slow stalls the handler, giving up early if the deadline passes.
func (c *Chaos) slow(ctx context.Context) {
	if !c.active() || c.SlowHandler <= 0 {
		return
	}
	t := time.NewTimer(c.SlowHandler)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
