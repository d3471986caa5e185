// Command resembled runs the ReSemble simulation engine as a
// resilient long-running service, or — with -soak — as a chaos/soak
// harness that starts the service in-process, attacks it with
// injected faults over real HTTP, and asserts that every resilience
// mechanism engages and recovers.
//
// Daemon mode:
//
//	resembled -addr 127.0.0.1:8080 -workers 4 -store-dir /var/lib/resemble
//
// serves the JSON API (POST /v1/run, GET /healthz /readyz /stats
// /metrics, POST /drain) until SIGINT/SIGTERM, then drains gracefully:
// admission closes and in-flight simulations finish. With -store-dir,
// runs checkpoint into the shared artifact store so a front door can
// resume them elsewhere; the service counters are process-lifetime.
//
// Soak mode:
//
//	resembled -soak -soak.duration 10s
//
// phases through zero-fault equivalence (service windows must be
// byte-identical to a batch sim.Runner over the same requests), a
// chaos window (stuck arm + failing run-checkpoint writes + slow
// handlers: breakers must open, overload must shed with 503 +
// Retry-After, readiness must flip), recovery (chaos off: readiness and
// breakers must heal), and a drain audit (injected checkpoint failures
// counted, later checkpoints landed, artifact store sweeps clean,
// goroutines back to baseline). Any violated assertion exits nonzero.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resemble/internal/cas"
	"resemble/internal/service"
	"resemble/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8321", "listen address")
		workers    = flag.Int("workers", 2, "simulation worker count")
		queue      = flag.Int("queue", 32, "admission queue depth")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request deadline")
		drainT     = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound")
		storeDir   = flag.String("store-dir", "", "durable artifact store root (empty = off): runs checkpoint into it and /v1/run accepts resume_from; traces are not stored (they regenerate as fast as they read back); safe to share with other resembled/resemblefront processes on a local filesystem")
		runCkp     = flag.Int("run-checkpoint-every", 0, "accesses between per-run store checkpoints when -store-dir is set (0 = engine default)")
		accesses   = flag.Int("accesses", 20000, "default trace length per request")
		telDir     = flag.String("telemetry", "", "telemetry output directory (empty = off)")
		chromeOut  = flag.String("trace-chrome", "", "write the span trace as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file on exit")
		explainN   = flag.Int("explain-sample", 32, "RL decision explainability: record 1 in N decisions for /v1/explain (0 disables)")
		logLevel   = flag.String("log-level", "info", "structured request/lifecycle logging on stderr (debug|info|warn|error; empty disables)")
		soak       = flag.Bool("soak", false, "run the chaos/soak harness instead of serving")
		soakFor    = flag.Duration("soak.duration", 10*time.Second, "approximate soak length")
		soakAccess = flag.Int("soak.accesses", 4000, "trace length per soak request")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off); drained with the service")
		profDir    = flag.String("profile-dir", "", "write CPU+heap profiles of manual incident captures (POST /debug/incidents/capture?cpu_ms=N) under this directory (implies a telemetry collector)")
		allocAttr  = flag.Bool("alloc-attribution", true, "per-phase allocation attribution in telemetry (requires a telemetry sink to surface)")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "resembled: %v\n", err)
		os.Exit(1)
	}

	if *soak {
		os.Exit(runSoak(soakConfig{
			duration:  *soakFor,
			accesses:  *soakAccess,
			workers:   *workers,
			chromeOut: *chromeOut,
			logf:      logf,
		}))
	}

	var tel *telemetry.Collector
	if *telDir != "" || *chromeOut != "" || *explainN > 0 || *profDir != "" {
		tel, err = telemetry.New(telemetry.Config{
			Dir:              *telDir,
			ChromeOut:        *chromeOut,
			ExplainSample:    *explainN,
			AllocAttribution: *allocAttr,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "resembled: %v\n", err)
			os.Exit(1)
		}
	}

	var store *cas.Store
	if *storeDir != "" {
		st, rep, err := cas.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resembled: store: %v\n", err)
			os.Exit(1)
		}
		if !rep.Clean() {
			logger.Warn("resembled: store recovery sweep repaired", "report", rep.String())
		}
		store = st
	}

	s, err := service.New(service.Config{
		Addr:               *addr,
		Workers:            *workers,
		QueueDepth:         *queue,
		RequestTimeout:     *timeout,
		DrainTimeout:       *drainT,
		DefaultAccesses:    *accesses,
		Store:              store,
		RunCheckpointEvery: *runCkp,
		Telemetry:          tel,
		Logger:             logger,
		PprofAddr:          *pprofAddr,
		ProfileDir:         *profDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "resembled: %v\n", err)
		os.Exit(1)
	}
	if err := s.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "resembled: %v\n", err)
		os.Exit(1)
	}
	logger.Info("resembled: serving; SIGINT/SIGTERM drains", "addr", s.Addr(), "pid", os.Getpid())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logger.Info("resembled: signal received; draining", "signal", sig.String())
		// A second signal aborts the drain.
		go func() {
			<-sigs
			logger.Warn("resembled: second signal; exiting without full drain")
			os.Exit(1)
		}()
	case <-s.Drained():
		// POST /drain already ran the full drain; Close below is an
		// idempotent no-op and the process exits instead of lingering.
		logger.Info("resembled: drained via POST /drain; exiting")
	}
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "resembled: drain: %v\n", err)
		os.Exit(1)
	}
	if tel != nil {
		if err := tel.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "resembled: telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// buildLogger constructs the daemon's structured logger: a text slog
// handler on stderr at the requested level, or a discard logger when
// level is empty. The service tags every request record with its seq
// and root span ID, correlating logs with the span trace.
func buildLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return slog.New(slog.DiscardHandler), nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug|info|warn|error", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}
