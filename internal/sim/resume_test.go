package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/stride"
	"resemble/internal/sim"
	"resemble/internal/trace"
)

func resumeTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	w, err := trace.Lookup("471.omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	return w.GenerateSeeded(n, w.Seed)
}

// TestCheckpointRunnerMatchesPlainRun: a run whose checkpoint sink is
// attached (and fires at every boundary) produces the plain run's
// result — snapshotting never perturbs the simulation.
func TestCheckpointRunnerMatchesPlainRun(t *testing.T) {
	tr := resumeTrace(t, 8000)
	cfg := sim.DefaultConfig()
	want, err := sim.NewRunner(cfg).Run(tr, sim.FromPrefetcher(bo.New(bo.Config{}), 2))
	if err != nil {
		t.Fatal(err)
	}
	cap := &capture{}
	got, err := sim.NewRunner(cfg, sim.WithCheckpointSink(1000, cap.sink)).Run(tr, sim.FromPrefetcher(bo.New(bo.Config{}), 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("checkpoint-capable runner result differs from plain run:\nwant %+v\ngot  %+v", want, got)
	}
	if len(cap.blobs) != 7 {
		t.Errorf("sink saw %d checkpoints, want 7 (every 1000 of 8000 records, none at the end)", len(cap.blobs))
	}
}

// interruptAt runs until stop records have been processed in this
// session (resuming from blob when non-nil) and returns the checkpoint
// the interrupt handed to the sink.
func interruptAt(t *testing.T, cfg sim.Config, tr *trace.Trace, src sim.Source, every, stop int, blob []byte) []byte {
	t.Helper()
	cap := &capture{}
	_, err := sim.NewRunner(cfg, sim.WithCheckpointSink(every, cap.sink), sim.WithResumeBlob(blob), sim.WithStopAfter(stop)).Run(tr, src)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("stop=%d: want ErrInterrupted, got %v", stop, err)
	}
	return cap.last()
}

// TestResumeDeterministicSolo interrupts a solo-prefetcher run at
// several points (before and after the warmup boundary, on and off the
// periodic-checkpoint grid) and verifies the resumed run's result is
// identical to the uninterrupted run.
func TestResumeDeterministicSolo(t *testing.T) {
	tr := resumeTrace(t, 8000)
	cfg := sim.DefaultConfig()
	mk := func() sim.Source { return sim.FromPrefetcher(stride.New(stride.Config{}), 2) }
	want, err := sim.NewRunner(cfg).Run(tr, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []int{700, 1600, 4096, 7999} {
		blob := interruptAt(t, cfg, tr, mk(), 1024, stop, nil)
		got, err := sim.NewRunner(cfg, sim.WithResumeBlob(blob)).Run(tr, mk())
		if err != nil {
			t.Fatalf("stop=%d: resume: %v", stop, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("stop=%d: resumed result differs from uninterrupted:\nwant %+v\ngot  %+v", stop, want, got)
		}
	}
}

// TestResumeTwoInterrupts chains two interruptions: the state must
// survive any number of stop/resume cycles.
func TestResumeTwoInterrupts(t *testing.T) {
	tr := resumeTrace(t, 8000)
	cfg := sim.DefaultConfig()
	mk := func() sim.Source { return sim.FromPrefetcher(stride.New(stride.Config{}), 2) }
	want, err := sim.NewRunner(cfg).Run(tr, mk())
	if err != nil {
		t.Fatal(err)
	}
	first := interruptAt(t, cfg, tr, mk(), 0, 2000, nil)
	second := interruptAt(t, cfg, tr, mk(), 0, 3000, first)
	got, err := sim.NewRunner(cfg, sim.WithResumeBlob(second)).Run(tr, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("twice-resumed result differs from uninterrupted:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestResumeValidation: a checkpoint only resumes the run it was taken
// from, and unparseable bytes are refused — every rejection is
// ErrBadResume.
func TestResumeValidation(t *testing.T) {
	tr := resumeTrace(t, 4000)
	cfg := sim.DefaultConfig()
	mk := func() sim.Source { return sim.FromPrefetcher(stride.New(stride.Config{}), 2) }
	blob := interruptAt(t, cfg, tr, mk(), 0, 1000, nil)
	resume := func(t *testing.T, blob []byte, tr *trace.Trace, src sim.Source, what string) {
		t.Helper()
		if _, err := sim.NewRunner(cfg, sim.WithResumeBlob(blob)).Run(tr, src); !errors.Is(err, sim.ErrBadResume) {
			t.Errorf("resuming %s: err = %v, want ErrBadResume", what, err)
		}
	}

	t.Run("wrong trace", func(t *testing.T) {
		resume(t, blob, resumeTrace(t, 5000), mk(), "on a different trace")
	})
	t.Run("wrong source", func(t *testing.T) {
		resume(t, blob, tr, sim.FromPrefetcher(bo.New(bo.Config{}), 2), "with a different source")
	})
	t.Run("corrupt bytes", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0xFF
		resume(t, bad, tr, mk(), "from a corrupt checkpoint")
	})
	t.Run("empty blob", func(t *testing.T) {
		resume(t, []byte{}, tr, mk(), "from an empty checkpoint")
	})
}
