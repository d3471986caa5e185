// Command perfbench is the repository's layered end-to-end benchmark.
// It runs one named workload against in-process services (and, for the
// cluster workload, a front door over two backends) for a fixed time,
// checks every response against an in-process reference run, and
// prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics, as the last line of its output:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 50 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and how to
// read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (dqn-online, serve-mix, front-short)")
		seed    = flag.Int64("seed", 1, "seed for the workload's requests and arrival times")
		seconds = flag.Int("seconds", runSeconds, "how long the load runs")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	env := currentEnv()
	fmt.Printf("env: %s\n", env)
	fmt.Printf("baseline: %s\n", compareBaseline(env))

	d := time.Duration(*seconds) * time.Second
	var runs []*result // every measured run, each checked
	var metrics []metric
	if *traced == 0 {
		var res *result
		if res, err = measure(w, *seed, d, false); err == nil {
			runs = append(runs, res)
			printSummary(w, res)
			metrics = endToEnd(w, res)
			printMetrics("end-to-end", metrics)
		}
	} else {
		// The traced run measures the same workload untraced and traced
		// in turn, half the time each, so their difference is the
		// tracing overhead at equal length.
		var plain, res *result
		if plain, err = measure(w, *seed, d/2, false); err == nil {
			res, err = measure(w, *seed, d/2, true)
		}
		if err == nil {
			runs = append(runs, plain, res)
			printSummary(w, res)
			metrics, err = perLayer(w, res, plain)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, res := range runs {
		if res.wrong > 0 {
			out.Correct = false
			fmt.Printf("MISMATCH: %d responses differ from their reference run; first: %s\n", res.wrong, res.wrongExample)
		}
		out.Attempted += len(res.outs)
		out.Failed += res.failed()
	}
	for _, m := range metrics {
		if m.name != ungated {
			out.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// ungated is the end-to-end metric printed for people but left out of the
// result's JSON, and so out of the regression gate: on serve-mix its
// spread across seeds on the reference host (0.32 to 0.45 in every set
// of ten runs) is wider than any bound the gate allows. See README.md.
const ungated = "latency_tail_ms"

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("%s metrics:\n", title)
	for _, m := range ms {
		fmt.Printf("  %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// env is the environment manifest recorded with every result: numbers
// from different environments are not comparable.
type env struct {
	NProc      int
	GOMAXPROCS int
	Go         string
	OS         string
	Arch       string
}

func currentEnv() env {
	return env{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

func (e env) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s %s/%s", e.NProc, e.GOMAXPROCS, e.Go, e.OS, e.Arch)
}

// baselineEnv is the environment README.md's seed-commit numbers were
// recorded in.
var baselineEnv = env{2, 2, "go1.24.0", "linux", "amd64"}

// compareBaseline states whether this environment matches baselineEnv.
// Numbers from another environment are not comparable: a 2-vCPU host is
// not a regression of a 1-vCPU one.
func compareBaseline(cur env) string {
	if baselineEnv.NProc != cur.NProc || baselineEnv.GOMAXPROCS != cur.GOMAXPROCS || baselineEnv.Go != cur.Go {
		return fmt.Sprintf("NOT comparable: README.md's seed-commit numbers were recorded with %s", baselineEnv)
	}
	return fmt.Sprintf("comparable with README.md's seed-commit numbers (%s)", baselineEnv)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
