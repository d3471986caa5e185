// Command bench is the benchmark-regression tracker: it runs a pinned
// set of performance benchmarks in-process (simulator step, DQN
// forward pass, tabular Q update, pooled experiment throughput,
// service request latency p50/p99), writes the results plus an
// environment manifest to a BENCH_<n>.json file, and compares them
// against the newest prior BENCH_*.json in the repository root —
// failing (exit 1) when any pinned benchmark regresses by more than
// -threshold (default 15%).
//
// Usage:
//
//	bench -out BENCH_5.json          # run, record, compare vs newest prior
//	bench -quick                     # 1-iteration smoke run (no recording)
//	bench -compare-only              # compare the two newest BENCH files
//	bench -validate-chrome trace.json # validate a Chrome trace file
//
// make bench-track wraps the first form. The comparison is skipped
// cleanly (exit 0, with a note) when no prior BENCH file exists, so
// the first run of a fresh checkout records a baseline instead of
// failing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"bytes"

	"resemble/internal/core"
	"resemble/internal/experiments"
	"resemble/internal/nn"
	"resemble/internal/prefetch"
	"resemble/internal/service"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"

	"math/rand"
)

// Result is one pinned benchmark's measurement. Schema 2: allocs/op
// and bytes/op are recorded for every benchmark (explicit zeros
// included — an allocation-free path is a measurement, not a gap),
// and each benchmark carries its allocs/op budget so the gate travels
// with the history.
type Result struct {
	Name         string             `json:"name"`
	NsPerOp      float64            `json:"ns_per_op"`
	AllocsPerOp  int64              `json:"allocs_per_op"`
	BytesPerOp   int64              `json:"bytes_per_op"`
	AllocsBudget int64              `json:"allocs_budget,omitempty"`
	Iterations   int                `json:"iterations"`
	Extra        map[string]float64 `json:"extra,omitempty"`
}

// benchSchema versions the BENCH_<n>.json layout. 2 adds universal
// allocs/bytes per op plus per-benchmark allocs_budget.
const benchSchema = 2

// allocBudgets pins the allocs/op budget per benchmark — roughly 1.5-2x
// the measured baseline (BENCH_8 era: allocation-free hot path, flat
// hash tables), so ordinary drift passes and a structural allocation
// regression fails. A budget of 0 means ungated.
var allocBudgets = map[string]int64{
	"sim.step":        32,
	"dqn.forward":     2,
	"tabular.update":  4,
	"pool.throughput": 768,
	"service.request": 4096,
}

// Env is the environment manifest recorded with every report, so a
// regression can be told apart from a machine change.
type Env struct {
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Report is the BENCH_<n>.json schema.
type Report struct {
	Schema  int    `json:"schema"`
	Created string `json:"created"`
	Quick   bool   `json:"quick,omitempty"`
	// Profiled marks reports taken under -profile: the CPU profiler
	// and the finer MemProfileRate inflate ns/op by 10-20%, so timings
	// are only comparable between like-for-like runs.
	Profiled bool     `json:"profiled,omitempty"`
	Env      Env      `json:"env"`
	Results  []Result `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	testing.Init() // register test.* flags so -quick can pin benchtime
	var (
		out         = flag.String("out", "", "write the report to this BENCH_<n>.json path (empty = stdout only)")
		quick       = flag.Bool("quick", false, "single-iteration smoke run: no recording, no regression gate")
		threshold   = flag.Float64("threshold", 0.15, "regression gate: fail when ns/op grows by more than this fraction")
		compareOnly = flag.Bool("compare-only", false, "compare the two newest BENCH_*.json files without running benchmarks")
		dir         = flag.String("dir", ".", "directory holding BENCH_*.json history")
		chrome      = flag.String("validate-chrome", "", "validate a Chrome trace-event file and exit")
		profile     = flag.Bool("profile", false, "capture per-benchmark CPU+alloc profiles, write PROF_<n>.json, and run the hotspot gate")
	)
	flag.Parse()

	if *chrome != "" {
		if err := telemetry.ValidateChromeTraceFile(*chrome); err != nil {
			return fmt.Errorf("chrome trace %s: %w", *chrome, err)
		}
		fmt.Printf("chrome trace %s: valid\n", *chrome)
		return nil
	}

	if *compareOnly {
		if err := compareNewest(*dir, *threshold); err != nil {
			return err
		}
		return compareNewestProf(*dir)
	}

	if *quick {
		// One timed iteration per benchmark: exercises every pinned
		// path without the ~1s/benchmark settling time.
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			return err
		}
	}

	rep := Report{
		Schema:  benchSchema,
		Created: time.Now().UTC().Format(time.RFC3339),
		Quick:   *quick,
		Env: Env{
			GoVersion:  runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}

	var prof *profiler
	if *profile {
		prof = newProfiler(*quick)
		rep.Profiled = true
	}

	scale := 1
	if *quick {
		scale = 4
	}
	for _, bm := range pinned(scale) {
		fmt.Fprintf(os.Stderr, "running %-18s ... ", bm.name)
		res, err := prof.wrap(bm.name, bm.run)
		if err != nil {
			return fmt.Errorf("%s: %w", bm.name, err)
		}
		res.AllocsBudget = allocBudgets[res.Name]
		fmt.Fprintf(os.Stderr, "%12.0f ns/op\n", res.NsPerOp)
		rep.Results = append(rep.Results, res)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if *out == "" || *quick {
		fmt.Println(string(enc))
		if *quick {
			// Quick profiling is a smoke signal: decode, print, no
			// files, no gates.
			if prof != nil {
				prof.printTop(5)
			}
			return nil
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Results))
	}

	var profPath string
	if prof != nil {
		profPath = profPathFor(*out, *dir)
		penc, err := json.MarshalIndent(prof.rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(profPath, append(penc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmark profiles)\n", profPath, len(prof.rep.Benchmarks))
	}

	// Allocation budgets gate against the report itself, so they hold
	// even on a fresh checkout with no history.
	if breaches := budgetBreaches(&rep); len(breaches) > 0 {
		return fmt.Errorf("%d allocation budget breach(es):\n  %s",
			len(breaches), joinLines(breaches))
	}

	// Gate against the newest prior report, excluding the file we just
	// wrote. No prior history means this run records the baseline.
	prior, name, err := newestReport(*dir, *out)
	if err != nil {
		return err
	}
	if prior == nil {
		fmt.Println("no prior BENCH_*.json; baseline recorded, regression gate skipped")
	} else if err := gate(prior, &rep, name, *threshold); err != nil {
		return err
	}

	if prof != nil {
		priorProf, profName, err := newestProfReport(*dir, profPath)
		if err != nil {
			return err
		}
		if priorProf == nil {
			fmt.Println("no prior PROF_*.json; profile baseline recorded, hotspot gate skipped")
			return nil
		}
		return profGate(priorProf, &prof.rep, profName)
	}
	return nil
}

// pinnedBench is one named benchmark with its runner.
type pinnedBench struct {
	name string
	run  func() (Result, error)
}

// pinned returns the tracked benchmark set. scale > 1 shrinks the
// workloads for -quick smoke runs.
func pinned(scale int) []pinnedBench {
	return []pinnedBench{
		{"sim.step", func() (Result, error) { return benchSimStep(20000 / scale) }},
		{"dqn.forward", benchDQNForward},
		{"tabular.update", func() (Result, error) { return benchTabularUpdate(4096 / scale) }},
		{"pool.throughput", func() (Result, error) { return benchPoolThroughput(3000 / scale) }},
		{"service.request", func() (Result, error) { return benchServiceLatency(2000/scale, 30/scale) }},
	}
}

// fromTesting converts a testing.BenchmarkResult.
func fromTesting(name string, r testing.BenchmarkResult) Result {
	out := Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
	if len(r.Extra) > 0 {
		out.Extra = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			out.Extra[k] = v
		}
	}
	return out
}

// benchTrace generates a deterministic benchmark trace.
func benchTrace(n int) (*trace.Trace, error) {
	w, err := trace.Lookup("433.milc")
	if err != nil {
		return nil, err
	}
	return w.GenerateSeeded(n, w.Seed), nil
}

// benchSimStep measures one full baseline simulation over n accesses;
// the extra metric normalizes to ns per simulated access.
func benchSimStep(n int) (Result, error) {
	tr, err := benchTrace(n)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultConfig()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.NewRunner(cfg, sim.WithBaseline()).Run(tr, nil); err != nil {
				panic(err)
			}
		}
	})
	res := fromTesting("sim.step", r)
	if res.Extra == nil {
		res.Extra = map[string]float64{}
	}
	res.Extra["ns_per_access"] = res.NsPerOp / float64(n)
	return res, nil
}

// benchDQNForward measures one serving-side forward pass at the
// paper's 4-input / 100-hidden / 5-action geometry, the way the
// controller issues it: ForwardInto with a caller-owned reused output
// buffer. The extra metric times the 16-bit fixed-point serving path
// (Table VIII's deployment operating point) on the same network.
func benchDQNForward() (Result, error) {
	m := nn.NewMLP(rand.New(rand.NewSource(1)), nn.ReLU, 4, 100, 5)
	f, err := nn.Quantize(m, 10)
	if err != nil {
		return Result{}, err
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	dst := make([]float64, 5)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = m.ForwardInto(dst, x)
		}
	})
	rf := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = f.ForwardInto(dst, x)
		}
	})
	res := fromTesting("dqn.forward", r)
	if res.Extra == nil {
		res.Extra = map[string]float64{}
	}
	res.Extra["fixed_ns_per_op"] = float64(rf.T.Nanoseconds()) / float64(rf.N)
	return res, nil
}

// benchTabularUpdate measures the tabular controller's per-access
// path (state fold, Q lookup/update, arm dispatch).
func benchTabularUpdate(n int) (Result, error) {
	tr, err := benchTrace(n)
	if err != nil {
		return Result{}, err
	}
	ctrl := core.NewTabularController(core.DefaultConfig(), experiments.FourPrefetchers())
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := tr.Records[i%tr.Len()]
			ctrl.OnAccess(prefetch.AccessContext{Index: i, ID: rec.ID, PC: rec.PC, Addr: rec.Addr, Line: rec.Line()})
		}
	})
	return fromTesting("tabular.update", r), nil
}

// benchPoolThroughput measures a pooled matrix experiment end to end
// (trace cache, worker pool over all CPUs, result reassembly).
func benchPoolThroughput(accesses int) (Result, error) {
	var lastErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Fig1c(experiments.Options{
				Accesses: accesses,
				Batch:    64,
				Jobs:     runtime.NumCPU(),
			}); err != nil {
				lastErr = err
				b.Fatal(err)
			}
		}
	})
	if lastErr != nil {
		return Result{}, lastErr
	}
	return fromTesting("pool.throughput", r), nil
}

// benchServiceLatency starts an in-process service, fires sequential
// requests over real HTTP and reports p50/p99 request latency. The
// gated ns/op is the p50 — the stable center of the distribution.
func benchServiceLatency(accesses, requests int) (Result, error) {
	if requests < 3 {
		requests = 3
	}
	s, err := service.New(service.Config{Workers: 2, DefaultAccesses: accesses})
	if err != nil {
		return Result{}, err
	}
	if err := s.Start(); err != nil {
		return Result{}, err
	}
	defer s.Close()

	body, _ := json.Marshal(service.Request{Workload: "433.milc", Controller: "resemble-t", Accesses: accesses})
	durs := make([]time.Duration, 0, requests)
	// Process-wide allocation delta across the request loop, divided by
	// requests: not as clean as testing.B accounting (it includes the
	// worker side — intentionally, that IS the request cost), but exact
	// counters via runtime/metrics.
	allocStart := telemetry.ReadAllocCounters()
	for i := 0; i < requests; i++ {
		start := time.Now()
		resp, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return Result{}, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return Result{}, fmt.Errorf("request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		durs = append(durs, time.Since(start))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	quantile := func(q float64) float64 {
		idx := int(q*float64(len(durs))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(durs) {
			idx = len(durs) - 1
		}
		return float64(durs[idx].Nanoseconds())
	}
	allocEnd := telemetry.ReadAllocCounters()
	p50, p99 := quantile(0.50), quantile(0.99)
	return Result{
		Name:        "service.request",
		NsPerOp:     p50,
		AllocsPerOp: int64(allocEnd.Objects-allocStart.Objects) / int64(requests),
		BytesPerOp:  int64(allocEnd.Bytes-allocStart.Bytes) / int64(requests),
		Iterations:  requests,
		Extra:       map[string]float64{"p50_ns": p50, "p99_ns": p99},
	}, nil
}

// --- regression comparison ---

var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// benchFiles lists BENCH_*.json in dir, sorted by numeric suffix
// ascending.
func benchFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type numbered struct {
		name string
		n    int
	}
	var files []numbered
	for _, e := range entries {
		m := benchFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		files = append(files, numbered{e.Name(), n})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].n < files[j].n })
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = filepath.Join(dir, f.name)
	}
	return out, nil
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// newestReport loads the BENCH file with the highest numeric suffix,
// excluding the path just written. nil with no error when history is
// empty.
func newestReport(dir, exclude string) (*Report, string, error) {
	files, err := benchFiles(dir)
	if err != nil {
		return nil, "", err
	}
	for i := len(files) - 1; i >= 0; i-- {
		if exclude != "" && filepath.Base(files[i]) == filepath.Base(exclude) {
			continue
		}
		r, err := readReport(files[i])
		if err != nil {
			return nil, "", err
		}
		return r, files[i], nil
	}
	return nil, "", nil
}

// compareNewest gates the newest BENCH file against its predecessor.
// With fewer than two files the gate is skipped cleanly — exit 0 —
// so fresh checkouts pass; with a changed environment the newest file
// starts a new baseline (see gate).
func compareNewest(dir string, threshold float64) error {
	files, err := benchFiles(dir)
	if err != nil {
		return err
	}
	if len(files) < 2 {
		fmt.Printf("bench history has %d file(s); regression gate skipped (need 2)\n", len(files))
		return nil
	}
	prev, err := readReport(files[len(files)-2])
	if err != nil {
		return err
	}
	cur, err := readReport(files[len(files)-1])
	if err != nil {
		return err
	}
	return gate(prev, cur, files[len(files)-2], threshold)
}

// budgetBreaches reports every benchmark in rep whose allocs/op
// exceeds its recorded budget (budget 0 = ungated).
func budgetBreaches(rep *Report) []string {
	var breaches []string
	for _, r := range rep.Results {
		if r.AllocsBudget > 0 && r.AllocsPerOp > r.AllocsBudget {
			breaches = append(breaches, fmt.Sprintf(
				"%s: %d allocs/op exceeds budget %d", r.Name, r.AllocsPerOp, r.AllocsBudget))
		}
	}
	return breaches
}

// gate compares cur against prior and fails on regressions beyond
// threshold, and on any allocation-budget breach in cur. Quick-mode
// reports are never gated — single-iteration timings are smoke
// signals, not measurements.
func gate(prior, cur *Report, priorName string, threshold float64) error {
	if prior.Quick || cur.Quick {
		fmt.Println("quick-mode report in comparison; regression gate skipped")
		return nil
	}
	if why := incomparable(prior, cur); why != "" {
		// Timings from another machine shape or under the profiler are
		// neither a pass nor a regression; the allocation budgets are
		// self-contained and still apply.
		fmt.Println(why + "; ns/op gate skipped (alloc budgets still apply)")
		if breaches := budgetBreaches(cur); len(breaches) > 0 {
			return fmt.Errorf("%d allocation budget breach(es):\n  %s",
				len(breaches), joinLines(breaches))
		}
		return nil
	}
	priorByName := make(map[string]Result, len(prior.Results))
	for _, r := range prior.Results {
		priorByName[r.Name] = r
	}
	regressions := budgetBreaches(cur)
	for _, r := range cur.Results {
		p, ok := priorByName[r.Name]
		if !ok || p.NsPerOp <= 0 {
			fmt.Printf("  %-18s %12.0f ns/op  (new; no prior)\n", r.Name, r.NsPerOp)
			continue
		}
		delta := (r.NsPerOp - p.NsPerOp) / p.NsPerOp
		marker := "ok"
		if delta > threshold {
			marker = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%% > %.0f%%)",
					r.Name, p.NsPerOp, r.NsPerOp, 100*delta, 100*threshold))
		}
		fmt.Printf("  %-18s %12.0f ns/op  vs %12.0f (%+6.1f%%)  %s\n",
			r.Name, r.NsPerOp, p.NsPerOp, 100*delta, marker)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark regression(s) vs %s:\n  %s",
			len(regressions), priorName, joinLines(regressions))
	}
	fmt.Printf("no regressions vs %s (threshold %.0f%%)\n", priorName, 100*threshold)
	return nil
}

// incomparable names why cur's timings cannot be judged against
// prior's ("" when they can): a different CPU count or GOMAXPROCS
// starts a new baseline, and profiler overhead inflates ns/op.
func incomparable(prior, cur *Report) string {
	p, c := prior.Env, cur.Env
	if p.CPUs != c.CPUs || p.GOMAXPROCS != c.GOMAXPROCS {
		return fmt.Sprintf("new baseline (environment changed: cpus %d -> %d, gomaxprocs %d -> %d)",
			p.CPUs, c.CPUs, p.GOMAXPROCS, c.GOMAXPROCS)
	}
	if prior.Profiled != cur.Profiled {
		return "profiling differs between reports"
	}
	return ""
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
