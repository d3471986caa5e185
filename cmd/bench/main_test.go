package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resemble/internal/pprofparse"
)

func report(results ...Result) *Report {
	return &Report{Schema: benchSchema, Results: results}
}

// TestGateBudgetBreach: a seeded allocs/op budget breach fails the
// gate even when ns/op is flat.
func TestGateBudgetBreach(t *testing.T) {
	prior := report(Result{Name: "sim.step", NsPerOp: 1000, AllocsPerOp: 100, AllocsBudget: 120})
	cur := report(Result{Name: "sim.step", NsPerOp: 1000, AllocsPerOp: 121, AllocsBudget: 120})
	err := gate(prior, cur, "BENCH_1.json", 0.15)
	if err == nil {
		t.Fatal("budget breach passed the gate")
	}
	if !strings.Contains(err.Error(), "exceeds budget") || !strings.Contains(err.Error(), "sim.step") {
		t.Errorf("breach error does not name the benchmark and budget: %v", err)
	}
}

func TestGateBudgetWithin(t *testing.T) {
	prior := report(Result{Name: "sim.step", NsPerOp: 1000, AllocsPerOp: 100, AllocsBudget: 120})
	cur := report(Result{Name: "sim.step", NsPerOp: 1010, AllocsPerOp: 119, AllocsBudget: 120})
	if err := gate(prior, cur, "BENCH_1.json", 0.15); err != nil {
		t.Fatalf("within-budget report failed the gate: %v", err)
	}
	// Budget 0 means ungated regardless of allocs/op.
	cur = report(Result{Name: "sim.step", NsPerOp: 1000, AllocsPerOp: 1 << 40})
	if err := gate(prior, cur, "BENCH_1.json", 0.15); err != nil {
		t.Fatalf("ungated benchmark failed the gate: %v", err)
	}
}

// TestGateNsRegressionStillFails: the original ns/op gate survives the
// schema bump.
func TestGateNsRegressionStillFails(t *testing.T) {
	prior := report(Result{Name: "sim.step", NsPerOp: 1000})
	cur := report(Result{Name: "sim.step", NsPerOp: 1300})
	if err := gate(prior, cur, "BENCH_1.json", 0.15); err == nil {
		t.Fatal("30% ns/op regression passed the gate")
	}
}

func profBench(name string, total int64, funcs ...pprofparse.Entry) ProfBench {
	return ProfBench{Name: name, AllocBytesTop: funcs, TotalAllocBytes: total}
}

// TestProfGateNewSymbol: a symbol entering the top-10 flat alloc-bytes
// table with >= 5% of the benchmark's bytes fails the hotspot gate.
func TestProfGateNewSymbol(t *testing.T) {
	prior := &ProfReport{Schema: profSchema, Benchmarks: []ProfBench{
		profBench("sim.step", 1000,
			pprofparse.Entry{Func: "sim.run", Flat: 600},
			pprofparse.Entry{Func: "trace.gen", Flat: 400}),
	}}
	cur := &ProfReport{Schema: profSchema, Benchmarks: []ProfBench{
		profBench("sim.step", 1100,
			pprofparse.Entry{Func: "sim.run", Flat: 600},
			pprofparse.Entry{Func: "evil.alloc", Flat: 100}, // 9% of total: hotspot
			pprofparse.Entry{Func: "trace.gen", Flat: 400}),
	}}
	err := profGate(prior, cur, "PROF_1.json")
	if err == nil {
		t.Fatal("new alloc hotspot passed the gate")
	}
	if !strings.Contains(err.Error(), "evil.alloc") {
		t.Errorf("hotspot error does not name the symbol: %v", err)
	}
}

// TestProfGateIgnoresTailNoise: newcomers below the 5% floor pass.
func TestProfGateIgnoresTailNoise(t *testing.T) {
	prior := &ProfReport{Schema: profSchema, Benchmarks: []ProfBench{
		profBench("sim.step", 1000, pprofparse.Entry{Func: "sim.run", Flat: 990}),
	}}
	cur := &ProfReport{Schema: profSchema, Benchmarks: []ProfBench{
		profBench("sim.step", 1000,
			pprofparse.Entry{Func: "sim.run", Flat: 980},
			pprofparse.Entry{Func: "tiny.helper", Flat: 20}), // 2%: noise
	}}
	if err := profGate(prior, cur, "PROF_1.json"); err != nil {
		t.Fatalf("tail noise failed the gate: %v", err)
	}
}

func TestProfGateSkipsQuick(t *testing.T) {
	prior := &ProfReport{Schema: profSchema, Quick: true}
	cur := &ProfReport{Schema: profSchema, Benchmarks: []ProfBench{
		profBench("sim.step", 100, pprofparse.Entry{Func: "anything", Flat: 100}),
	}}
	if err := profGate(prior, cur, "PROF_1.json"); err != nil {
		t.Fatalf("quick prior should skip the gate: %v", err)
	}
}

func TestProfPathFor(t *testing.T) {
	if got := profPathFor(filepath.Join("x", "BENCH_7.json"), "."); got != filepath.Join("x", "PROF_7.json") {
		t.Errorf("profPathFor with -out = %q", got)
	}
	if got := profPathFor("", t.TempDir()); filepath.Base(got) != "PROF_1.json" {
		t.Errorf("profPathFor with empty history = %q", got)
	}
}

// TestGateSkipsNsWhenProfilingDiffers: profiler overhead makes ns/op
// incomparable across profiled/unprofiled runs; the budget gate still
// holds.
func TestGateSkipsNsWhenProfilingDiffers(t *testing.T) {
	prior := report(Result{Name: "sim.step", NsPerOp: 1000})
	cur := report(Result{Name: "sim.step", NsPerOp: 1300})
	cur.Profiled = true
	if err := gate(prior, cur, "BENCH_1.json", 0.15); err != nil {
		t.Fatalf("profiled-vs-unprofiled ns delta failed the gate: %v", err)
	}
	cur.Results[0].AllocsPerOp, cur.Results[0].AllocsBudget = 200, 100
	if err := gate(prior, cur, "BENCH_1.json", 0.15); err == nil {
		t.Fatal("budget breach passed the gate on a profiled report")
	}
}

// writeBench records rep as dir/name.
func writeBench(t *testing.T, dir, name string, rep *Report) {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs f and returns what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	f()
	w.Close()
	return <-out
}

// TestCompareNewestLikeForLike: compareNewest gates a 30% ns/op
// regression between reports from the same environment, but treats a
// report from a different CPU count or GOMAXPROCS as a new baseline —
// neither a pass nor a regression — while its alloc budgets still hold.
func TestCompareNewestLikeForLike(t *testing.T) {
	env := Env{GoVersion: "go1.24.0", OS: "linux", Arch: "amd64", CPUs: 1, GOMAXPROCS: 1}
	prior := report(Result{Name: "sim.step", NsPerOp: 1000})
	prior.Env = env

	t.Run("same environment gates", func(t *testing.T) {
		dir := t.TempDir()
		cur := report(Result{Name: "sim.step", NsPerOp: 1300})
		cur.Env = env
		writeBench(t, dir, "BENCH_8.json", prior)
		writeBench(t, dir, "BENCH_9.json", cur)
		if err := compareNewest(dir, 0.15); err == nil || !strings.Contains(err.Error(), "regression") {
			t.Fatalf("same-environment 30%% regression: err = %v, want a regression", err)
		}
	})

	for _, changed := range []Env{
		{GoVersion: env.GoVersion, OS: env.OS, Arch: env.Arch, CPUs: 2, GOMAXPROCS: 2},
		{GoVersion: env.GoVersion, OS: env.OS, Arch: env.Arch, CPUs: 1, GOMAXPROCS: 2},
	} {
		t.Run("changed environment starts a baseline", func(t *testing.T) {
			dir := t.TempDir()
			cur := report(Result{Name: "sim.step", NsPerOp: 1300})
			cur.Env = changed
			writeBench(t, dir, "BENCH_8.json", prior)
			writeBench(t, dir, "BENCH_9.json", cur)
			var err error
			out := captureStdout(t, func() { err = compareNewest(dir, 0.15) })
			if err != nil {
				t.Fatalf("changed environment was gated: %v", err)
			}
			if !strings.Contains(out, "new baseline (environment changed:") {
				t.Errorf("output does not announce a new baseline:\n%s", out)
			}

			cur.Results[0].AllocsPerOp, cur.Results[0].AllocsBudget = 200, 100
			writeBench(t, dir, "BENCH_9.json", cur)
			captureStdout(t, func() { err = compareNewest(dir, 0.15) })
			if err == nil {
				t.Fatal("budget breach passed on a new-baseline report")
			}
		})
	}
}
