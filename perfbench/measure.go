package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"resemble/internal/cas"
	"resemble/internal/cluster"
	"resemble/internal/service"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// result is one measured load run and what the check found.
type result struct {
	outs  []*outcome
	wall  time.Duration
	setup []float64 // seconds, one per timed set-up
	rssMB float64   // peak resident memory at the end of the load

	// Counter deltas over the load, read from the program's own stats.
	cache        trace.CacheStats
	store        cas.Stats
	front        cluster.Stats
	breakerTrips uint64
	frontSpans   []telemetry.SpanRecord

	// Filled by the check.
	wrong        int
	wrongExample string
	layers       *layerTimes
	traceSet     *traceSet
	buildUS      float64
}

// failed counts attempted requests that did not come back as a correct
// success: errors, shed or timed-out requests, and wrong responses.
func (r *result) failed() int {
	n := 0
	for _, o := range r.outs {
		if !o.ok() {
			n++
		}
	}
	return n
}

// warmup is the request each connection sends before the load starts:
// cheap, and on a trace no workload request uses, so it opens the
// connection without warming the workload's trace-cache entries.
var warmup = service.Request{Workload: "433.milc", Controller: "none", Accesses: 1000, Seed: -1}

// setups is how many times a run sets its rig up before the load and
// again after it; setup_s is the median of all of them. One set-up of a
// millisecond or less is too noisy to report, and timing them on both
// sides of the load samples more of the host's speed phases.
const setups = 9

// timeSetups sets the workload's rig up n times, tears all but the last
// down, and returns the last with the set-up times in seconds.
func timeSetups(w *workload, traced bool, n int) (*rig, []float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		runtime.GC() // start each set-up from the same heap state
		began := time.Now()
		r, err := startRig(w, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(began).Seconds())
		if i == n-1 {
			return r, secs, nil
		}
		if err := r.close(); err != nil {
			return nil, nil, fmt.Errorf("tear-down: %w", err)
		}
	}
}

// measure sets the workload's rig up (see setups), runs the load for d
// on the last one, tears it down, times the set-ups after the load, and
// checks every response.
func measure(w *workload, seed int64, d time.Duration, traced bool) (*result, error) {
	res := &result{}
	r, secs, err := timeSetups(w, traced, setups)
	if err != nil {
		return nil, err
	}
	res.setup = secs
	rigClosed := false
	defer func() {
		if !rigClosed {
			r.close()
		}
	}()

	nproc := runtime.NumCPU()
	conns := w.clients
	if conns <= 0 || conns > nproc {
		conns = nproc
	}
	client := newLoadClient(r.target, conns)
	defer client.close()
	if err := parallel(conns, conns, func(int) error {
		var o outcome
		client.post(warmup, &o, time.Now())
		return o.err
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	pool, next := w.sequence(seed)
	if traced {
		base := next
		next = func(i int) service.Request {
			req := base(i)
			req.ReturnSpans = true
			return req
		}
	}
	cache0, store0, front0, trips0 := r.snapshot()
	if w.clients != 0 {
		res.outs, res.wall = closedLoop(client, conns, d, next)
	} else {
		res.outs, res.wall = openLoop(client, conns, w.openCount(len(pool), d), d, seed, next)
	}
	res.rssMB = peakRSSMB()
	cache1, store1, front1, trips1 := r.snapshot()
	res.cache = trace.CacheStats{Hits: cache1.Hits - cache0.Hits, Misses: cache1.Misses - cache0.Misses}
	res.store = cas.Stats{Puts: store1.Puts - store0.Puts}
	res.front = cluster.Stats{Completed: front1.Completed - front0.Completed,
		Failovers: front1.Failovers - front0.Failovers, Hedges: front1.Hedges - front0.Hedges}
	res.breakerTrips = trips1 - trips0
	if traced && r.frontTel != nil {
		res.frontSpans = r.frontTel.Spans()
	}
	if err := client.checkCaps(); err != nil {
		return nil, err
	}
	rigClosed = true
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	after, secs, err := timeSetups(w, traced, setups)
	if err != nil {
		return nil, err
	}
	res.setup = append(res.setup, secs...)
	if err := after.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	if err := check(w, res, traced); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return res, nil
}

func (r *rig) snapshot() (trace.CacheStats, cas.Stats, cluster.Stats, uint64) {
	var st cas.Stats
	if r.store != nil {
		st = r.store.Stats()
	}
	var fs cluster.Stats
	if r.front != nil {
		fs = r.front.Stats()
	}
	return r.traces.Stats(), st, fs, r.breakerTrips()
}

// check compares every successful response with its reference run (and,
// for the cluster workload, with the same request sent to one backend
// directly), marking the ones that differ.
func check(w *workload, res *result, traced bool) error {
	keys := distinct(res.outs)
	res.traceSet = &traceSet{traces: map[string]*trace.Trace{}}
	if traced {
		res.layers = newLayerTimes()
	}
	want, err := references(keys, res.traceSet, res.layers)
	if err != nil {
		return err
	}
	bad, example := checkOutcomes(res.outs, want, "reference run")
	res.wrong, res.wrongExample = bad, example
	if w.cluster {
		direct, err := singleInstance(w, keys)
		if err != nil {
			return err
		}
		bad, example := checkOutcomes(res.outs, direct, "single instance")
		res.wrong += bad
		if res.wrongExample == "" {
			res.wrongExample = example
		}
	}
	if traced {
		if res.buildUS, err = buildSourceTimes(keys); err != nil {
			return err
		}
	}
	return nil
}

// singleInstance sends each distinct request to one fresh backend with
// the cluster backends' configuration but no front door, store or
// telemetry, and returns its statistics per key.
func singleInstance(w *workload, keys []runKey) (map[runKey]simStats, error) {
	svc, err := service.New(backendConfig(w, trace.NewCache(0), nil, nil))
	if err != nil {
		return nil, err
	}
	if err := svc.Start(); err != nil {
		return nil, err
	}
	defer svc.Close()
	client := newLoadClient(svc.Addr(), runtime.NumCPU())
	defer client.close()
	out := make([]simStats, len(keys))
	err = parallel(runtime.NumCPU(), len(keys), func(i int) error {
		var o outcome
		client.post(keys[i].req, &o, time.Now())
		if o.err != nil {
			return fmt.Errorf("single instance %+v: %w", keys[i].req, o.err)
		}
		out[i] = statsOfResponse(o.resp)
		return nil
	})
	want := map[runKey]simStats{}
	for i, k := range keys {
		want[k] = out[i]
	}
	return want, err
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printSummary states the run's request counts and which percentile
// latency_tail_ms is.
func printSummary(w *workload, res *result) {
	tail, n := w.tailPercentile()
	fmt.Printf("requests: %d attempted, %d failed, %d distinct runs checked, wall %.3fs\n",
		len(res.outs), res.failed(), len(distinct(res.outs)), res.wall.Seconds())
	fmt.Printf("latency_tail_ms is p%g: %d samples beyond it at the workload's fixed %d requests\n",
		tail, beyond(n, tail), n)
	errs := map[string]int{}
	for _, o := range res.outs {
		if o.err != nil {
			errs[fmt.Sprintf("%s/%s: %v", o.req.Workload, o.req.Controller, o.err)]++
		}
	}
	for _, e := range sortedKeys(errs) {
		fmt.Printf("  failed %dx: %s\n", errs[e], e)
	}
}

// endToEnd computes the end-to-end metrics of a run.
func endToEnd(w *workload, res *result) []metric {
	var lat []float64
	var accesses int
	classes := map[runKey][]float64{}
	for _, o := range res.outs {
		if !o.ok() {
			continue
		}
		lat = append(lat, ms(o.latency()))
		accesses += o.resp.Accesses
		k := keyOf(o)
		classes[k] = append(classes[k], o.resp.IPC, o.resp.Coverage)
	}
	// IPC and coverage are averaged over distinct runs, each counted
	// once: identical requests give identical statistics, so the mean
	// does not depend on how many of each a run happened to complete.
	var ipc, cov float64
	for _, v := range classes {
		var si, sc float64
		for i := 0; i < len(v); i += 2 {
			si += v[i]
			sc += v[i+1]
		}
		n := float64(len(v) / 2)
		ipc += si / n
		cov += sc / n
	}
	if n := float64(len(classes)); n > 0 {
		ipc /= n
		cov /= n
	}
	tail, _ := w.tailPercentile()
	wall := res.wall.Seconds()
	return []metric{
		{"setup_s", median(res.setup), "s"},
		{"latency_p50_ms", percentile(lat, 50), "ms"},
		{"latency_tail_ms", percentile(lat, tail), "ms"},
		{"throughput_rps", float64(len(lat)) / wall, "1/s"},
		{"goodput_rps", goodput(lat, w.limitMS, res.wall), "1/s"},
		{"sim_kacc_per_s", float64(accesses) / wall / 1000, "kacc/s"},
		{"success_ratio", float64(len(lat)) / float64(max(1, len(res.outs))), "ratio"},
		{"peak_rss_mb", res.rssMB, "MiB"},
		{"ipc_mean", ipc, "ipc"},
		{"coverage_mean", cov, "ratio"},
	}
}
