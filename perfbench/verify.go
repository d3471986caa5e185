package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"resemble/internal/core"
	"resemble/internal/ensemble/sbp"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/service"
	"resemble/internal/sim"
	"resemble/internal/trace"
)

// The correctness check: every successful response is compared with an
// in-process reference run of the same request, built here from the
// public constructors (not from the service), with the arm set the
// response reports as admitted.

// runKey identifies one distinct simulation: the request plus the arms
// its response reported as excluded by open breakers.
type runKey struct {
	req      service.Request
	excluded string
}

func keyOf(o *outcome) runKey {
	req := o.req
	req.ReturnSpans, req.ReturnWindows = false, false
	return runKey{req: req, excluded: strings.Join(o.resp.ExcludedArms, ",")}
}

// newArm builds one input prefetcher with its default configuration.
func newArm(name string) (prefetch.Prefetcher, error) {
	switch name {
	case "bo":
		return bo.New(bo.Config{}), nil
	case "spp":
		return spp.New(spp.Config{}), nil
	case "isb":
		return isb.New(isb.Config{}), nil
	case "domino":
		return domino.New(domino.Config{}), nil
	}
	return nil, fmt.Errorf("unknown arm %q", name)
}

// controllerConfig is the service's documented per-request controller
// configuration: the paper's Table III defaults, the request's seed and
// serving precision, and accuracy masking at the fault-matrix operating
// point.
func controllerConfig(req service.Request) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = 1 + req.Seed
	cfg.FixedFrac = req.FixedFrac
	cfg.MaskFloor = 0.2
	cfg.MaskWindow = 1024
	cfg.MaskBadWindows = 2
	cfg.MaskMinSamples = 16
	cfg.MaskReprobe = 16 * 1024
	return cfg
}

// armWrap optionally wraps each arm (the traced replay's timers).
type armWrap func(prefetch.Prefetcher) prefetch.Prefetcher

// referenceSource builds the source of key's run (nil for "none").
func referenceSource(key runKey, wrap armWrap) (sim.Source, error) {
	if wrap == nil {
		wrap = func(p prefetch.Prefetcher) prefetch.Prefetcher { return p }
	}
	req := key.req
	switch req.Controller {
	case "none":
		return nil, nil
	case "bo", "spp", "isb", "domino":
		p, err := newArm(req.Controller)
		if err != nil {
			return nil, err
		}
		return sim.FromPrefetcher(wrap(p), 2), nil
	}
	excluded := map[string]bool{}
	for _, a := range strings.Split(key.excluded, ",") {
		excluded[a] = true
	}
	var arms []prefetch.Prefetcher
	for _, name := range service.ArmNames() {
		if excluded[name] {
			continue
		}
		p, err := newArm(name)
		if err != nil {
			return nil, err
		}
		arms = append(arms, wrap(p))
	}
	switch req.Controller {
	case "resemble":
		return core.NewController(controllerConfig(req), arms), nil
	case "resemble-t":
		cfg := controllerConfig(req)
		cfg.TableHashBits = 8
		return core.NewTabularController(cfg, arms), nil
	case "sbp-e":
		return sbp.New(sbp.Config{}, arms), nil
	}
	return nil, fmt.Errorf("unknown controller %q", req.Controller)
}

// traceSet generates each distinct trace once, timing the generations.
type traceSet struct {
	mu     sync.Mutex
	traces map[string]*trace.Trace
	gen    []time.Duration
}

func (ts *traceSet) get(req service.Request) (*trace.Trace, error) {
	w, err := trace.Lookup(req.Workload)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("%s/%d/%d", req.Workload, req.Accesses, req.Seed)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if tr, ok := ts.traces[id]; ok {
		return tr, nil
	}
	began := time.Now()
	tr := w.GenerateSeeded(req.Accesses, w.Seed+req.Seed)
	ts.gen = append(ts.gen, time.Since(began))
	ts.traces[id] = tr
	return tr, nil
}

// distinct returns the run keys of the successful outcomes, sorted so
// the check's order (and its replay sample) is the same on every run.
func distinct(outs []*outcome) []runKey {
	seen := map[runKey]bool{}
	var keys []runKey
	for _, o := range outs {
		if o.err != nil || o.status != 200 {
			continue
		}
		k := keyOf(o)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	return keys
}

// simStats is the simulated-statistics part of a response that the
// check compares field by field.
type simStats struct {
	Accesses                          int
	IPC, MPKI, Accuracy, Coverage     float64
	Instructions, LLCMisses           uint64
	PrefetchesIssued, Useful, Dropped uint64
}

func statsOfResponse(r service.Response) simStats {
	return simStats{r.Accesses, r.IPC, r.MPKI, r.Accuracy, r.Coverage, r.Instructions, r.LLCMisses,
		r.PrefetchesIssued, r.UsefulPrefetches, r.DroppedPrefetches}
}

func statsOfResult(n int, r sim.Result) simStats {
	return simStats{n, r.IPC, r.MPKI, r.Accuracy, r.Coverage, r.Instructions, r.LLCMisses,
		r.PrefetchesIssued, r.UsefulPrefetches, r.DroppedPrefetches}
}

// parallel runs f(i) for i in [0, n) on `workers` goroutines and
// returns the first error.
func parallel(workers, n int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
		next  = make(chan int)
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

// checkOutcomes marks every successful outcome whose statistics differ
// from want[key] and returns the number marked, with one example.
func checkOutcomes(outs []*outcome, want map[runKey]simStats, what string) (int, string) {
	bad, example := 0, ""
	for _, o := range outs {
		if o.err != nil || o.status != 200 {
			continue
		}
		ref, ok := want[keyOf(o)]
		got := statsOfResponse(o.resp)
		if ok && got == ref {
			continue
		}
		o.wrong = true
		bad++
		if example == "" {
			example = fmt.Sprintf("%s: %+v: response %+v, reference %+v", what, o.req, got, ref)
		}
	}
	return bad, example
}
