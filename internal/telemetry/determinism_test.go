// Determinism regression test: telemetry must be a pure function of
// (workload, seed). Every piece of the pipeline is deterministic by
// construction — count-based event sampling, stride-decimated
// histogram reservoirs, struct-ordered JSON — and this test pins that
// property end to end by running the full simulator + DQN controller
// twice and byte-comparing the marshalled windows, sampled events and
// registry snapshot.
package telemetry_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"resemble/internal/core"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

func telemetryRun(t *testing.T, accesses int) (windows, events, registry []byte) {
	t.Helper()
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true, TraceSample: 16})
	if err != nil {
		t.Fatal(err)
	}
	mem := &telemetry.MemorySink{}
	tel.AddEventSink(mem, false)

	w, err := trace.Lookup("471.omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.GenerateSeeded(accesses, w.Seed)
	cfg := core.DefaultConfig()
	cfg.Batch = 64
	cfg.Seed = 1
	pfs := []prefetch.Prefetcher{
		bo.New(bo.Config{}), spp.New(spp.Config{}),
		isb.New(isb.Config{}), domino.New(domino.Config{}),
	}
	if _, err := sim.NewRunner(sim.DefaultConfig(), sim.WithTelemetry(tel)).Run(tr, core.NewController(cfg, pfs)); err != nil {
		t.Fatal(err)
	}

	wins := tel.Windows()
	if len(wins) == 0 {
		t.Fatal("run emitted no window snapshots")
	}
	evs := mem.Events()
	if len(evs) == 0 {
		t.Fatal("run emitted no sampled events")
	}
	windows, err = json.Marshal(wins)
	if err != nil {
		t.Fatal(err)
	}
	events, err = json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	registry, err = json.Marshal(tel.Registry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	return windows, events, registry
}

// resumableSetup builds a fresh collector + memory event sink and the
// full DQN ensemble over a freshly generated trace, so every session
// (uninterrupted, interrupted, resumed) starts from identical inputs.
func resumableSetup(t *testing.T, accesses int) (*telemetry.Collector, *telemetry.MemorySink, *trace.Trace, sim.Source) {
	t.Helper()
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true, TraceSample: 16})
	if err != nil {
		t.Fatal(err)
	}
	memSink := &telemetry.MemorySink{}
	tel.AddEventSink(memSink, false)
	w, err := trace.Lookup("471.omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.GenerateSeeded(accesses, w.Seed)
	cfg := core.DefaultConfig()
	cfg.Batch = 64
	cfg.Seed = 1
	pfs := []prefetch.Prefetcher{
		bo.New(bo.Config{}), spp.New(spp.Config{}),
		isb.New(isb.Config{}), domino.New(domino.Config{}),
	}
	return tel, memSink, tr, core.NewController(cfg, pfs)
}

// TestResumeDeterminism is the acceptance test for checkpoint/resume:
// interrupting a full simulator + DQN + telemetry run mid-trace and
// resuming it from the checkpoint in a fresh session must produce
// byte-identical window snapshots, sampled events, registry contents
// and results to the uninterrupted run.
func TestResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulator run skipped in -short mode")
	}
	const accesses = 6000
	simCfg := sim.DefaultConfig()

	tel, memSink, tr, src := resumableSetup(t, accesses)
	wantRes, err := sim.NewRunner(simCfg, sim.WithTelemetry(tel)).Run(tr, src)
	if err != nil {
		t.Fatal(err)
	}
	wantWins := append([]telemetry.WindowSnapshot(nil), tel.Windows()...)
	wantEvents := append([]telemetry.Event(nil), memSink.Events()...)
	wantReg, err := json.Marshal(tel.Registry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	for _, stop := range []int{900, 3500} { // before and after warmup end
		// The first session's last checkpoint is the interrupt's; the
		// resumed session keeps checkpointing on the same grid.
		var blob []byte
		keep := func(b []byte, _ int) error { blob = append([]byte(nil), b...); return nil }
		discard := func([]byte, int) error { return nil }

		tel1, sink1, tr1, src1 := resumableSetup(t, accesses)
		_, err := sim.NewRunner(simCfg,
			sim.WithTelemetry(tel1), sim.WithCheckpointSink(1000, keep), sim.WithStopAfter(stop),
		).Run(tr1, src1)
		if !errors.Is(err, sim.ErrInterrupted) {
			t.Fatalf("stop=%d: want ErrInterrupted, got %v", stop, err)
		}

		tel2, sink2, tr2, src2 := resumableSetup(t, accesses)
		gotRes, err := sim.NewRunner(simCfg,
			sim.WithTelemetry(tel2), sim.WithCheckpointSink(1000, discard), sim.WithResumeBlob(blob),
		).Run(tr2, src2)
		if err != nil {
			t.Fatalf("stop=%d: resume: %v", stop, err)
		}

		if !reflect.DeepEqual(wantRes, gotRes) {
			t.Errorf("stop=%d: resumed result differs:\nwant %+v\ngot  %+v", stop, wantRes, gotRes)
		}
		// A resumed KeepWindows collector restores the retained windows
		// from the checkpoint, so the second session alone carries the
		// full stream — the property resume-on-another-machine depends
		// on. The pre-interrupt prefix must match the first session's
		// retained windows exactly.
		gotWins := tel2.Windows()
		wj, _ := json.Marshal(wantWins)
		gj, _ := json.Marshal(gotWins)
		if !bytes.Equal(wj, gj) {
			t.Errorf("stop=%d: window snapshots differ between uninterrupted and interrupted+resumed runs", stop)
		}
		pre := tel1.Windows()
		pj, _ := json.Marshal(append([]telemetry.WindowSnapshot{}, pre...))
		fj, _ := json.Marshal(append([]telemetry.WindowSnapshot{}, wantWins[:len(pre)]...))
		if !bytes.Equal(pj, fj) {
			t.Errorf("stop=%d: pre-interrupt windows diverge from the uninterrupted prefix", stop)
		}
		gotEvents := append(append([]telemetry.Event(nil), sink1.Events()...), sink2.Events()...)
		ej, _ := json.Marshal(wantEvents)
		gje, _ := json.Marshal(gotEvents)
		if !bytes.Equal(ej, gje) {
			t.Errorf("stop=%d: sampled event traces differ between uninterrupted and interrupted+resumed runs", stop)
		}
		gotReg, err := json.Marshal(tel2.Registry().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantReg, gotReg) {
			t.Errorf("stop=%d: registry snapshots differ between uninterrupted and interrupted+resumed runs", stop)
		}
	}
}

func TestTelemetryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulator run skipped in -short mode")
	}
	const accesses = 6000
	w1, e1, r1 := telemetryRun(t, accesses)
	w2, e2, r2 := telemetryRun(t, accesses)
	if !bytes.Equal(w1, w2) {
		t.Error("window snapshots differ between identical runs")
	}
	if !bytes.Equal(e1, e2) {
		t.Error("sampled event traces differ between identical runs")
	}
	if !bytes.Equal(r1, r2) {
		t.Error("registry snapshots differ between identical runs")
	}
}
