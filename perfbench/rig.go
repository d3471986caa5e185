package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"resemble/internal/cas"
	"resemble/internal/cluster"
	"resemble/internal/resilience"
	"resemble/internal/service"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// rig is one set-up of the system under test: its own trace cache, its
// own temporary directory (holding the artifact store where the workload
// uses one), its own services and, for the cluster workload, its own
// front door. Nothing is shared with an earlier rig, so trace-cache and
// store hits are the workload's own.
type rig struct {
	dir    string
	traces *trace.Cache
	store  *cas.Store

	svcs    []*service.Service
	svcTels []*telemetry.Collector

	front    *cluster.Front
	frontTel *telemetry.Collector

	// target is the address the load generator sends to.
	target string
}

// quiescedBreaker is the arm-breaker setting the cluster soak uses
// (serve-mix and front-short run with it; dqn-online runs with the
// service default). Accuracy masking stays at the service default. At
// the default breaker threshold, masking on serve-mix's irregular traces
// trips all four arm breakers within seconds and the service then
// refuses ensemble and solo-arm requests with 503 (see README.md). On
// front-short, arm breakers are per-instance adaptive state, so a fleet
// that spread the history differently would legitimately diverge from
// the single instance its responses are checked against.
var quiescedBreaker = resilience.BreakerConfig{FailureThreshold: 1 << 30}

// backendConfig is the service configuration of one front-short backend
// and of the single instance its responses are checked against.
func backendConfig(w *workload, traces *trace.Cache, tel *telemetry.Collector, store *cas.Store) service.Config {
	cfg := service.Config{
		Traces:    traces,
		Telemetry: tel,
		Breaker:   w.breaker,
	}
	if store != nil {
		cfg.Store = store
		cfg.RunCheckpointEvery = runCheckpointEvery
	}
	return cfg
}

// startRig brings the workload's daemons, store and caches up. With
// traced set, every service carries a telemetry collector so requests
// can ask for their span trees; the cluster workload carries collectors
// either way, as the cluster soak runs it.
func startRig(w *workload, traced bool) (r *rig, err error) {
	r = &rig{traces: trace.NewCache(0)}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	if r.dir, err = os.MkdirTemp("", "perfbench-"+w.name+"-"); err != nil {
		return nil, err
	}
	newTel := func(on bool, cfg telemetry.Config) (*telemetry.Collector, error) {
		if !on {
			return nil, nil
		}
		return telemetry.New(cfg)
	}
	if !w.cluster {
		tel, err := newTel(traced, telemetry.Config{})
		if err != nil {
			return r, err
		}
		svc, err := r.startService(service.Config{Traces: r.traces, Telemetry: tel, Breaker: w.breaker}, tel)
		if err != nil {
			return r, err
		}
		r.target = svc.Addr()
		return r, nil
	}

	store, rep, err := cas.Open(filepath.Join(r.dir, "store"))
	if err != nil {
		return r, err
	}
	r.store = store
	if !rep.Clean() {
		return r, fmt.Errorf("fresh store reported a dirty sweep: %+v", rep)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		tel, err := newTel(true, telemetry.Config{})
		if err != nil {
			return r, err
		}
		svc, err := r.startService(backendConfig(w, r.traces, tel, store), tel)
		if err != nil {
			return r, err
		}
		addrs = append(addrs, svc.Addr())
	}
	spanCap := 0 // the collector default
	if traced {
		spanCap = -1 // keep every span: the traced run reads them all back
	}
	if r.frontTel, err = newTel(true, telemetry.Config{SpanCap: spanCap}); err != nil {
		return r, err
	}
	r.front, err = cluster.New(cluster.Config{
		Backends:       addrs,
		Store:          store,
		Telemetry:      r.frontTel,
		RequestTimeout: time.Minute,
	})
	if err != nil {
		return r, err
	}
	if err := r.front.Start(); err != nil {
		r.front = nil
		return r, err
	}
	r.target = r.front.Addr()
	return r, nil
}

func (r *rig) startService(cfg service.Config, tel *telemetry.Collector) (*service.Service, error) {
	svc, err := service.New(cfg)
	if err != nil {
		tel.Close()
		return nil, err
	}
	if err := svc.Start(); err != nil {
		tel.Close()
		return nil, err
	}
	r.svcs = append(r.svcs, svc)
	r.svcTels = append(r.svcTels, tel)
	return svc, nil
}

// close stops the front door, then the services, then the store, and
// removes the rig's directory. Safe on a partly started rig.
func (r *rig) close() error {
	var errs []error
	if r.front != nil {
		errs = append(errs, r.front.Close())
	}
	errs = append(errs, r.frontTel.Close())
	for i, svc := range r.svcs {
		errs = append(errs, svc.Close(), r.svcTels[i].Close())
	}
	if r.store != nil {
		errs = append(errs, r.store.Close())
	}
	if r.dir != "" {
		errs = append(errs, os.RemoveAll(r.dir))
	}
	return errors.Join(errs...)
}

// serviceStats sums the services' breaker trips.
func (r *rig) breakerTrips() uint64 {
	var n uint64
	for _, svc := range r.svcs {
		for _, t := range svc.Stats().BreakerTrips {
			n += t
		}
	}
	return n
}
