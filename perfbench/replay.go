package main

import (
	"runtime"
	"sync"
	"time"

	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/service"
	"resemble/internal/sim"
)

// The reference runs of the correctness check double as the traced
// run's layer replay: with timers on, each run's source is wrapped in a
// sim.Source that times OnAccess, and each arm in a prefetch.Prefetcher
// that times Observe. The wrappers only forward calls, and the check
// compares every timed run with the service's response, which proves
// they change nothing the simulator computes.

// timedArm times one arm's Observe calls.
type timedArm struct {
	prefetch.Prefetcher
	ns, calls int64
}

func (a *timedArm) Observe(ctx prefetch.AccessContext) []prefetch.Suggestion {
	began := time.Now()
	s := a.Prefetcher.Observe(ctx)
	a.ns += int64(time.Since(began))
	a.calls++
	return s
}

// timedSource times a source's OnAccess calls.
type timedSource struct {
	sim.Source
	ns, calls int64
}

func (s *timedSource) OnAccess(ctx prefetch.AccessContext) []mem.Line {
	began := time.Now()
	l := s.Source.OnAccess(ctx)
	s.ns += int64(time.Since(began))
	s.calls++
	return l
}

// layerTimes accumulates the replay's timings over every replayed run.
type layerTimes struct {
	mu sync.Mutex
	// self holds controller self time (OnAccess minus time inside the
	// arms) and accesses, per controller name.
	selfNS, selfAcc map[string]int64
	armNS, armCalls map[string]int64
	// simNS is Runner.Run minus the source; baseNS the WithBaseline run.
	simNS, baseNS, accesses int64
	issued, useful, dropped uint64
}

func newLayerTimes() *layerTimes {
	return &layerTimes{selfNS: map[string]int64{}, selfAcc: map[string]int64{},
		armNS: map[string]int64{}, armCalls: map[string]int64{}}
}

// controllerLayer names the module a request's controller lives in.
func controllerLayer(controller string) string {
	switch controller {
	case "resemble":
		return "core.dqn"
	case "resemble-t":
		return "core.tabular"
	case "sbp-e":
		return "ensemble.sbp"
	}
	return ""
}

// runReference simulates key's run in-process and returns its
// statistics. With lt non-nil it runs timed and adds the run's layer
// timings to lt, plus a baseline run of the same trace.
func runReference(key runKey, ts *traceSet, lt *layerTimes) (simStats, error) {
	tr, err := ts.get(key.req)
	if err != nil {
		return simStats{}, err
	}
	var arms []*timedArm
	var wrap armWrap
	if lt != nil {
		wrap = func(p prefetch.Prefetcher) prefetch.Prefetcher {
			a := &timedArm{Prefetcher: p}
			arms = append(arms, a)
			return a
		}
	}
	src, err := referenceSource(key, wrap)
	if err != nil {
		return simStats{}, err
	}
	var timed *timedSource
	if lt != nil && src != nil {
		timed = &timedSource{Source: src}
		src = timed
	}
	runner := sim.NewRunner(sim.DefaultConfig())
	began := time.Now()
	res, err := runner.Run(tr, src)
	wall := time.Since(began)
	if err != nil {
		return simStats{}, err
	}
	if lt == nil {
		return statsOfResult(len(tr.Records), res), nil
	}
	began = time.Now()
	if _, err := runner.With(sim.WithBaseline()).Run(tr, nil); err != nil {
		return simStats{}, err
	}
	base := time.Since(began)

	lt.mu.Lock()
	defer lt.mu.Unlock()
	n := int64(len(tr.Records))
	simNS := int64(wall)
	var armNS int64
	for _, a := range arms {
		lt.armNS[a.Name()] += a.ns
		lt.armCalls[a.Name()] += a.calls
		armNS += a.ns
	}
	if timed != nil {
		simNS -= timed.ns
		if layer := controllerLayer(key.req.Controller); layer != "" {
			lt.selfNS[layer] += timed.ns - armNS
			lt.selfAcc[layer] += timed.calls
		}
	}
	lt.simNS += simNS
	lt.baseNS += int64(base)
	lt.accesses += n
	lt.issued += res.PrefetchesIssued
	lt.useful += res.UsefulPrefetches
	lt.dropped += res.DroppedPrefetches
	return statsOfResult(len(tr.Records), res), nil
}

// references runs every key's reference, on nproc goroutines when
// untimed and on one when timing the layers, so that the timings are
// not inflated by runs contending for the cores.
func references(keys []runKey, ts *traceSet, lt *layerTimes) (map[runKey]simStats, error) {
	out := make([]simStats, len(keys))
	workers := runtime.NumCPU()
	if lt != nil {
		workers = 1
	}
	err := parallel(workers, len(keys), func(i int) error {
		st, err := runReference(keys[i], ts, lt)
		out[i] = st
		return err
	})
	want := make(map[runKey]simStats, len(keys))
	for i, k := range keys {
		want[k] = out[i]
	}
	return want, err
}

// buildSourceTimes times Service.BuildSource for each key's request on a
// never-started service (its breakers are all closed), returning the
// mean in microseconds.
func buildSourceTimes(keys []runKey) (float64, error) {
	svc, err := service.New(service.Config{})
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, k := range keys {
		began := time.Now()
		if _, _, err := svc.BuildSource(k.req); err != nil {
			return 0, err
		}
		total += time.Since(began)
	}
	if len(keys) == 0 {
		return 0, nil
	}
	return float64(total) / float64(time.Microsecond) / float64(len(keys)), nil
}
