package main

import (
	"fmt"
	"math/rand"
	"time"

	"resemble/internal/nn"
	"resemble/internal/service"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// breakdown splits one request's client round trip into disjoint parts,
// in milliseconds, from the span trees the program returns. The parts
// sum to the round trip; outside is what no span covers (the client,
// HTTP encode and decode at the outermost hop).
type breakdown struct {
	rtt, outside          float64
	frontSelf, hop        float64 // front-short only
	admission, workerSelf float64
	requestRest           float64 // request span after worker.serve ends
	simRunSelf            float64 // sim.run minus its children
	simulateSelf          float64 // sim.simulate minus commits and checkpoints inside it
	windowCommit          float64
	checkpoint            float64
	simRun                float64 // the whole sim.run span, for comparison

	windows, checkpoints, spans int
}

// spanIndex finds spans by ID and children by parent.
type spanIndex struct {
	byID     map[telemetry.SpanID]telemetry.SpanRecord
	children map[telemetry.SpanID][]telemetry.SpanRecord
}

func indexSpans(recs []telemetry.SpanRecord) spanIndex {
	ix := spanIndex{byID: map[telemetry.SpanID]telemetry.SpanRecord{},
		children: map[telemetry.SpanID][]telemetry.SpanRecord{}}
	for _, r := range recs {
		ix.byID[r.ID] = r
		if r.Parent != 0 {
			ix.children[r.Parent] = append(ix.children[r.Parent], r)
		}
	}
	return ix
}

func (ix spanIndex) child(parent telemetry.SpanID, name string) (telemetry.SpanRecord, bool) {
	for _, c := range ix.children[parent] {
		if c.Name == name {
			return c, true
		}
	}
	return telemetry.SpanRecord{}, false
}

func span(r telemetry.SpanRecord) interval { return interval{r.StartUS, r.StartUS + r.DurUS} }

func spans(rs []telemetry.SpanRecord) []interval {
	out := make([]interval, len(rs))
	for i, r := range rs {
		out[i] = span(r)
	}
	return out
}

const usPerMS = 1000

// analyze builds o's breakdown from the backend span tree in its
// response and, through the front door, the front's spans.
func analyze(o *outcome, front *spanIndex) (breakdown, error) {
	b := breakdown{rtt: ms(o.done - o.sent), spans: len(o.resp.Spans)}
	ix := indexSpans(o.resp.Spans)
	var req telemetry.SpanRecord
	found := false
	for _, r := range o.resp.Spans {
		if r.Name == "request" {
			req, found = r, true
		}
	}
	if !found {
		return b, fmt.Errorf("response to %+v carries no request span", o.req)
	}
	worker, ok1 := ix.child(req.ID, "worker.serve")
	run, ok2 := ix.child(req.ID, "sim.run")
	simulate, ok3 := ix.child(run.ID, "sim.simulate")
	if !ok1 || !ok2 || !ok3 {
		return b, fmt.Errorf("response to %+v lacks worker.serve, sim.run or sim.simulate", o.req)
	}
	var commits, ckps []telemetry.SpanRecord
	for _, c := range ix.children[run.ID] {
		switch c.Name {
		case "window.commit":
			commits = append(commits, c)
		case "checkpoint.write", "checkpoint.load":
			ckps = append(ckps, c)
		}
	}
	b.windows, b.checkpoints = len(commits), len(ckps)
	for _, c := range commits {
		b.windowCommit += c.DurUS / usPerMS
	}
	for _, c := range ckps {
		b.checkpoint += c.DurUS / usPerMS
	}
	inner := append(append([]telemetry.SpanRecord{}, commits...), ckps...)
	b.admission = (worker.StartUS - req.StartUS) / usPerMS
	b.workerSelf = (worker.DurUS - run.DurUS) / usPerMS
	b.requestRest = (req.StartUS + req.DurUS - (worker.StartUS + worker.DurUS)) / usPerMS
	b.simRun = run.DurUS / usPerMS
	b.simRunSelf = selfTime(span(run), spans(ix.children[run.ID])) / usPerMS
	b.simulateSelf = selfTime(span(simulate), spans(inner)) / usPerMS
	outer := req.DurUS / usPerMS
	if front != nil {
		att, ok := front.byID[req.Parent]
		if !ok {
			return b, fmt.Errorf("no front attempt span for the request to %+v", o.req)
		}
		fr, ok := front.byID[att.Parent]
		if !ok {
			return b, fmt.Errorf("no front request span for the request to %+v", o.req)
		}
		attempts := front.children[fr.ID]
		b.spans += 1 + len(attempts)
		b.frontSelf = selfTime(span(fr), spans(attempts)) / usPerMS
		b.hop = (att.DurUS - req.DurUS) / usPerMS
		outer = fr.DurUS / usPerMS
	}
	b.outside = b.rtt - outer
	return b, nil
}

// perLayer computes the traced run's per-layer metrics and prints the
// per-request time breakdown and the tracing overhead.
func perLayer(w *workload, res, plain *result) ([]metric, error) {
	var front *spanIndex
	if w.cluster {
		ix := indexSpans(res.frontSpans)
		front = &ix
	}
	var sum breakdown
	n := 0
	var admission, overhead, kb, lag []float64
	var ts []sendTimes
	excluded, ensembles, masked := 0, 0, 0
	for _, o := range res.outs {
		ts = append(ts, o.sendTimes)
		lag = append(lag, ms(o.lag()))
		if !o.ok() {
			continue
		}
		b, err := analyze(o, front)
		if err != nil {
			return nil, err
		}
		n++
		sum.add(b)
		admission = append(admission, b.admission)
		overhead = append(overhead, b.rtt-o.resp.DurationMS)
		kb = append(kb, float64(o.bytes)/1024)
		if controllerLayer(o.req.Controller) != "" {
			ensembles++
			excluded += len(o.resp.ExcludedArms)
			if len(o.resp.MaskedArms) > 0 {
				masked++
			}
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("traced run completed no request")
	}
	mean := sum.scale(1 / float64(n))
	lt := res.layers
	trainNS, fwdNS := nnTimes()
	dqnNS, err := dqnTimes()
	if err != nil {
		return nil, err
	}

	perAccess := func(ns, acc int64) float64 {
		if acc == 0 {
			return 0
		}
		return float64(ns) / float64(acc)
	}
	var ctlNS, ctlAcc int64
	for layer, ns := range lt.selfNS {
		ctlNS += ns
		ctlAcc += lt.selfAcc[layer]
	}
	var genUS float64
	for _, g := range res.traceSet.gen {
		genUS += float64(g) / float64(time.Microsecond)
	}
	genUS /= float64(max(1, len(res.traceSet.gen)))
	hitRatio := 0.0
	if t := res.cache.Hits + res.cache.Misses; t > 0 {
		hitRatio = float64(res.cache.Hits) / float64(t)
	}
	exclRatio, maskedRatio := 0.0, 0.0
	if ensembles > 0 {
		exclRatio = float64(excluded) / float64(ensembles*4)
		maskedRatio = float64(masked) / float64(ensembles)
	}
	attempts := 1.0
	if w.cluster && res.front.Completed > 0 {
		attempts = float64(res.front.Completed+res.front.Failovers+res.front.Hedges) / float64(res.front.Completed)
	}
	suggested := lt.issued + lt.dropped

	out := []metric{
		{"nn.train_step_ns", trainNS, "ns"},
		{"nn.forward_ns", fwdNS, "ns"},
		{"core.dqn.self_ns_per_access", dqnNS, "ns"},
		{"core.controller.self_ns_per_access", perAccess(ctlNS, ctlAcc), "ns"},
	}
	for _, arm := range []string{"bo", "spp", "isb", "domino"} {
		out = append(out,
			metric{"prefetch." + arm + ".observe_ns", perAccess(lt.armNS[arm], lt.armCalls[arm]), "ns"},
			metric{"prefetch." + arm + ".calls", float64(lt.armCalls[arm]), "count"})
	}
	out = append(out,
		metric{"sim.self_ns_per_access", perAccess(lt.simNS, lt.accesses), "ns"},
		metric{"sim.baseline_ns_per_access", perAccess(lt.baseNS, lt.accesses), "ns"},
		metric{"sim.prefetch_useful_ratio", ratio(lt.useful, lt.issued), "ratio"},
		metric{"sim.prefetch_dropped_ratio", ratio(lt.dropped, suggested), "ratio"},
		metric{"trace.gen_us", genUS, "us"},
		metric{"trace.cache_hit_ratio", hitRatio, "ratio"},
		metric{"service.build_source_us", res.buildUS, "us"},
		metric{"service.admission_wait_ms", median(admission), "ms"},
		metric{"service.overhead_ms", median(overhead), "ms"},
		metric{"service.response_kb", median(kb), "KiB"},
		metric{"service.breaker_trips", float64(res.breakerTrips), "count"},
		metric{"service.arms_excluded_ratio", exclRatio, "ratio"},
		metric{"service.masked_runs_ratio", maskedRatio, "ratio"},
		metric{"telemetry.windows_per_request", float64(sum.windows) / float64(n), "count"},
		metric{"telemetry.spans_per_request", float64(sum.spans) / float64(n), "count"},
		metric{"cluster.attempts_per_request", attempts, "count"},
		metric{"cas.writes_per_request", float64(res.store.Puts) / float64(n), "count"},
		metric{"loadgen.lag_p99_ms", percentile(lag, 99), "ms"},
		metric{"loadgen.backlog_max", float64(backlogMax(ts)), "count"},
	)
	printMetrics("per-layer", out)

	// Layers only some workloads reach: printed, not in the JSON, which
	// carries the layers every workload measures.
	fmt.Println("workload-specific layers:")
	for _, layer := range []string{"core.dqn", "core.tabular", "ensemble.sbp"} {
		if acc := lt.selfAcc[layer]; acc > 0 {
			fmt.Printf("  %-36s %14.6g ns (over %d replayed accesses of this workload)\n",
				layer+".self_ns_per_access", perAccess(lt.selfNS[layer], acc), acc)
		}
	}
	if w.cluster {
		fmt.Printf("  %-36s %14.6g ms\n", "cluster.front_self_ms", mean.frontSelf)
		fmt.Printf("  %-36s %14.6g ms\n", "cluster.hop_ms", mean.hop)
	}
	if sum.windows > 0 {
		fmt.Printf("  %-36s %14.6g ms (per request)\n", "telemetry.window_commit_ms", mean.windowCommit)
	}
	if sum.checkpoints > 0 {
		fmt.Printf("  %-36s %14.6g ms (per write; %d writes)\n", "checkpoint.write_ms",
			sum.checkpoint/float64(sum.checkpoints), sum.checkpoints)
	}
	mean.print(w, lt, float64(n))
	printOverhead(w, plain, res)
	return out, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (b *breakdown) add(o breakdown) {
	b.rtt += o.rtt
	b.outside += o.outside
	b.frontSelf += o.frontSelf
	b.hop += o.hop
	b.admission += o.admission
	b.workerSelf += o.workerSelf
	b.requestRest += o.requestRest
	b.simRunSelf += o.simRunSelf
	b.simulateSelf += o.simulateSelf
	b.windowCommit += o.windowCommit
	b.checkpoint += o.checkpoint
	b.simRun += o.simRun
	b.windows += o.windows
	b.checkpoints += o.checkpoints
	b.spans += o.spans
}

func (b breakdown) scale(f float64) breakdown {
	return breakdown{
		rtt: b.rtt * f, outside: b.outside * f, frontSelf: b.frontSelf * f, hop: b.hop * f,
		admission: b.admission * f, workerSelf: b.workerSelf * f, requestRest: b.requestRest * f,
		simRunSelf: b.simRunSelf * f, simulateSelf: b.simulateSelf * f,
		windowCommit: b.windowCommit * f, checkpoint: b.checkpoint * f, simRun: b.simRun * f,
	}
}

// print shows where the mean request's time went.
func (b breakdown) print(w *workload, lt *layerTimes, n float64) {
	fmt.Printf("where the time went (mean over %.0f traced requests, client round trip %.4g ms):\n", n, b.rtt)
	row := func(name string, v float64) {
		fmt.Printf("  %-36s %10.4f ms %6.1f%%\n", name, v, 100*v/b.rtt)
	}
	if w.cluster {
		row("cluster.front_self", b.frontSelf)
		row("cluster.hop", b.hop)
	}
	row("service.admission_wait", b.admission)
	row("service.worker_self", b.workerSelf)
	row("service.request_rest", b.requestRest)
	row("sim.run_self", b.simRunSelf)
	row("sim.simulate_self", b.simulateSelf)
	row("telemetry.window_commit", b.windowCommit)
	row("checkpoint", b.checkpoint)
	row("unaccounted (outside every span)", b.outside)

	cl := b.frontSelf + b.hop
	svc := b.admission + b.workerSelf + b.requestRest
	fmt.Printf("cluster self %.4f + service self %.4f + telemetry self %.4f = %.4f ms vs sim.run %.4f ms; unaccounted %.4f ms\n",
		cl, svc, b.windowCommit, cl+svc+b.windowCommit, b.simRun, b.outside)
	if acc := lt.selfAcc["core.dqn"]; acc > 0 {
		// Shares within one frame: the replay's own wall time, and the
		// spans' sim.run within the service's round trip.
		wall := lt.simNS
		for _, ns := range lt.selfNS {
			wall += ns
		}
		for _, ns := range lt.armNS {
			wall += ns
		}
		fmt.Printf("core.dqn self time is %.1f%% of the replayed runs' wall time; sim.run is %.1f%% of the round trip\n",
			100*float64(lt.selfNS["core.dqn"])/float64(wall), 100*b.simRun/b.rtt)
	}
}

// printOverhead reports the traced end-to-end numbers minus the
// untraced ones measured just before, at the same length.
func printOverhead(w *workload, plain, traced *result) {
	a, b := endToEnd(w, plain), endToEnd(w, traced)
	fmt.Println("tracing overhead (traced minus untraced, same length):")
	for i := range a {
		if a[i].name == "setup_s" || a[i].name == "peak_rss_mb" {
			continue
		}
		d := b[i].value - a[i].value
		rel := 0.0
		if a[i].value != 0 {
			rel = 100 * d / a[i].value
		}
		fmt.Printf("  %-36s %12.5g -> %12.5g %s (%+.1f%%)\n", a[i].name, a[i].value, b[i].value, a[i].unit, rel)
	}
}

// nnTimes times direct nn.MLP TrainStep and ForwardInto calls at the
// controller's 4-100-5 shape: the median over batches of ns per call.
func nnTimes() (trainNS, forwardNS float64) {
	rng := rand.New(rand.NewSource(1))
	m := nn.NewMLP(rng, nn.ReLU, 4, 100, 5)
	m.GradClip = 1
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	const batches, calls = 7, 4000
	var train, fwd []float64
	dst := make([]float64, 5)
	for b := 0; b < batches; b++ {
		began := time.Now()
		for i := 0; i < calls; i++ {
			m.TrainStep(xs[i%len(xs)], i%5, 0.5, 0.001)
		}
		train = append(train, float64(time.Since(began))/calls)
		began = time.Now()
		for i := 0; i < calls; i++ {
			dst = m.ForwardInto(dst, xs[i%len(xs)])
		}
		fwd = append(fwd, float64(time.Since(began))/calls)
	}
	return median(train), median(fwd)
}

// dqnRuns are the DQN runs dqnTimes replays: dqn-online's two traces at
// its request length, on fixed seeds, so every workload's traced run
// times the same work.
var dqnRuns = []service.Request{
	{Workload: "433.milc", Controller: "resemble", Accesses: dqnAccesses, Seed: 1},
	{Workload: "471.omnetpp", Controller: "resemble", Accesses: dqnAccesses, Seed: 1},
}

// dqnTimes times the DQN controller directly, whatever the workload
// sends: it replays dqnRuns through the timing wrappers three times and
// returns the median of the controller's self time (OnAccess minus its
// arms) per access.
func dqnTimes() (float64, error) {
	ts := &traceSet{traces: map[string]*trace.Trace{}}
	var per []float64
	for i := 0; i < 3; i++ {
		lt := newLayerTimes()
		for _, req := range dqnRuns {
			if _, err := runReference(runKey{req: req}, ts, lt); err != nil {
				return 0, fmt.Errorf("dqn replay: %w", err)
			}
		}
		per = append(per, float64(lt.selfNS["core.dqn"])/float64(lt.selfAcc["core.dqn"]))
	}
	return median(per), nil
}
