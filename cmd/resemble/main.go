// Command resemble runs any prefetch controller over any workload (a
// registered synthetic workload or a trace file) and prints accuracy,
// coverage, MPKI and IPC improvement.
//
// Usage:
//
//	resemble -workload 471.omnetpp -controller resemble
//	resemble -workload hybrid.phases -controller sbp-e -n 100000
//	resemble -trace /path/to/trace.bin -controller resemble-t
//	resemble -workloads                         # list workloads
//
// Telemetry: -telemetry DIR enables the full observability layer — a
// RunManifest (manifest.json), per-1K-access window snapshots
// (windows.jsonl: reward, action shares, epsilon, IPC, MPKI), a
// sampled structured event trace (trace.jsonl, 1-in-N via
// -trace-sample) and a registry dump (metrics.json). -trace-out
// redirects the event trace (a .csv suffix switches the format);
// -pprof DIR writes cpu.pprof/heap.pprof; -pprof-http ADDR serves
// net/http/pprof.
//
// Like the paper's artifact demo, the run can emit its decision logs:
//
//	resemble -workload 654.roms -controller resemble \
//	    -pref roms.pref.txt -rewards roms.rewards.csv
//
// Both are thin sinks over the telemetry layer: the .pref.txt file
// lists the prefetched addresses per access (reconstructed from
// full-rate prefetch-issue events) and the .rewards.csv file records
// the reward sum and action shares per 1K-access window snapshot.
//
// Fault tolerance: -checkpoint FILE snapshots the whole run (simulator,
// controller, RNG, telemetry) every -checkpoint-every records and on
// SIGINT/SIGTERM; -resume continues from the snapshot and produces
// byte-identical results to an uninterrupted run. Each snapshot lands
// atomically; a failed periodic write warns and the run goes on (the
// previous file survives), while a failed final write on a signal
// exits non-zero with the write error:
//
//	resemble -workload 471.omnetpp -checkpoint run.ckpt
//	^C
//	resemble -workload 471.omnetpp -checkpoint run.ckpt -resume
//
// Parallelism: -jobs 2 simulates the baseline and the controller
// concurrently on isolated telemetry collectors; the merged outputs
// are byte-identical to a serial run. Incompatible with -checkpoint
// and -pref (both need the serial stream).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"resemble/internal/cas"
	"resemble/internal/core"
	"resemble/internal/ensemble/sbp"
	"resemble/internal/experiments"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/prefetch/stride"
	"resemble/internal/prefetch/voyager"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

var controllerNames = []string{
	"resemble", "resemble-t", "sbp-e",
	"bo", "spp", "isb", "domino", "stride", "voyager", "none",
}

func buildSource(name string, batch int, seed int64, fixedFrac uint) (sim.Source, error) {
	cfg := core.DefaultConfig()
	cfg.Batch = batch
	cfg.Seed = 1 + seed
	cfg.FixedFrac = fixedFrac
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case "resemble":
		return core.NewController(cfg, experiments.FourPrefetchers()), nil
	case "resemble-t":
		return core.NewTabularController(cfg, experiments.FourPrefetchers()), nil
	case "sbp-e":
		return sbp.New(sbp.Config{}, experiments.FourPrefetchers()), nil
	case "bo":
		return sim.FromPrefetcher(bo.New(bo.Config{}), 2), nil
	case "spp":
		return sim.FromPrefetcher(spp.New(spp.Config{}), 2), nil
	case "isb":
		return sim.FromPrefetcher(isb.New(isb.Config{}), 2), nil
	case "domino":
		return sim.FromPrefetcher(domino.New(domino.Config{}), 2), nil
	case "stride":
		return sim.FromPrefetcher(stride.New(stride.Config{}), 2), nil
	case "voyager":
		return sim.FromPrefetcher(voyager.New(voyager.Config{}), 2), nil
	case "none":
		return nil, nil
	}
	return nil, fmt.Errorf("unknown controller %q (choose from %s)", name, strings.Join(controllerNames, ", "))
}

func loadTrace(workload, path string, n int, seed int64) (*trace.Trace, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	}
	w, err := trace.Lookup(workload)
	if err != nil {
		return nil, err
	}
	return w.GenerateSeeded(n, w.Seed+seed), nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run holds the whole invocation so that every writer is flushed and
// closed via defer on all exit paths, including errors — the old
// os.Exit-style main could silently truncate -pref/-rewards files.
func run() (err error) {
	var (
		workload    = flag.String("workload", "hybrid.phases", "registered workload name")
		tracePath   = flag.String("trace", "", "binary trace file (overrides -workload)")
		ctrl        = flag.String("controller", "resemble", strings.Join(controllerNames, "|"))
		n           = flag.Int("n", 60000, "accesses to generate")
		batch       = flag.Int("batch", 64, "controller training batch")
		seed        = flag.Int64("seed", 0, "seed offset")
		latency     = flag.Uint64("latency", 0, "controller inference latency in cycles")
		lowTP       = flag.Bool("lowtp", false, "low-throughput controller model")
		fixedFrac   = flag.Uint("fixed-frac", 0, "serve DQN decisions from a 16-bit fixed-point snapshot with this many fractional bits (1-14; 0 = float serving)")
		prefOut     = flag.String("pref", "", "write prefetched addresses per access to this file")
		rewardOut   = flag.String("rewards", "", "write per-1K-window rewards and action shares (CSV)")
		telDir      = flag.String("telemetry", "", "write manifest, window snapshots, metrics and a sampled trace to this directory")
		traceOut    = flag.String("trace-out", "", "sampled event trace path (default <telemetry>/trace.jsonl; .csv switches format)")
		traceSample = flag.Int("trace-sample", 64, "event trace sampling: keep 1 in N (0 disables)")
		chromeOut   = flag.String("trace-chrome", "", "write the span trace as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
		explainOut  = flag.String("explain", "", "write sampled RL decision records (state, Q-values, epsilon, chosen arm, reward) as JSONL to this file")
		explainN    = flag.Int("explain-sample", 32, "decision explainability sampling: keep 1 in N (with -explain or -telemetry)")
		pprofDir    = flag.String("pprof", "", "write cpu.pprof and heap.pprof to this directory")
		pprofHTTP   = flag.String("pprof-http", "", "serve net/http/pprof on this address (e.g. :6060)")
		saveModel   = flag.String("save", "", "save the trained model (resemble / resemble-t) to this file")
		loadModel   = flag.String("load", "", "load a previously saved model before running")
		ckpPath     = flag.String("checkpoint", "", "checkpoint the run to this file (written periodically and on SIGINT/SIGTERM)")
		ckpEvery    = flag.Int("checkpoint-every", 100000, "checkpoint boundary spacing in trace records")
		resume      = flag.Bool("resume", false, "resume the run from -checkpoint instead of starting over")
		jobs        = flag.Int("jobs", 1, "run the baseline and controller simulations concurrently (>= 2; incompatible with -checkpoint and -pref)")
		list        = flag.Bool("workloads", false, "list workloads and exit")
	)
	flag.Parse()

	if *resume && *ckpPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	if *list {
		fmt.Println(strings.Join(trace.Names(), "\n"))
		return nil
	}

	tr, err := loadTrace(*workload, *tracePath, *n, *seed)
	if err != nil {
		return err
	}
	src, err := buildSource(*ctrl, *batch, *seed, *fixedFrac)
	if err != nil {
		return err
	}

	simCfg := sim.DefaultConfig()
	simCfg.PrefetchLatency = *latency
	simCfg.LowThroughput = *lowTP

	// Telemetry collector: needed for -telemetry and for the thin
	// artifact sinks (-pref/-rewards reconstruct their formats from the
	// telemetry streams).
	var tel *telemetry.Collector
	if *telDir != "" || *traceOut != "" || *prefOut != "" || *rewardOut != "" ||
		*chromeOut != "" || *explainOut != "" {
		sample := 0
		if *explainOut != "" || *telDir != "" {
			sample = *explainN
		}
		tel, err = telemetry.New(telemetry.Config{
			Dir:           *telDir,
			TraceOut:      *traceOut,
			TraceSample:   *traceSample,
			ChromeOut:     *chromeOut,
			ExplainOut:    *explainOut,
			ExplainSample: sample,
		})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := tel.Close(); err == nil {
				err = cerr
			}
		}()
		m := tel.Manifest()
		m.Workload, m.Controller = tr.Name, *ctrl
		m.Seed, m.Accesses = *seed, *n
		m.SetConfig("sim", simCfg)
		if *ctrl == "resemble" || *ctrl == "resemble-t" {
			cfg := core.DefaultConfig()
			cfg.Batch = *batch
			cfg.Seed = 1 + *seed
			cfg.FixedFrac = *fixedFrac
			m.SetConfig("controller", cfg)
		}
	}

	if *pprofHTTP != "" {
		addr, psrv, herr := telemetry.ServePprof(*pprofHTTP)
		if herr != nil {
			return herr
		}
		defer psrv.Close()
		fmt.Printf("pprof listening on %s\n", addr)
	}
	if *pprofDir != "" {
		stop, perr := telemetry.StartProfiles(*pprofDir)
		if perr != nil {
			return perr
		}
		defer func() {
			if cerr := stop(); err == nil {
				err = cerr
			}
		}()
	}

	if *loadModel != "" {
		if err := loadModelFile(src, *loadModel); err != nil {
			return err
		}
		fmt.Printf("loaded model from %s\n", *loadModel)
	}

	// All simulations go through one Runner; variants (baseline,
	// checkpointed, per-goroutine collectors) derive from it with With.
	runner := sim.NewRunner(simCfg, sim.WithTelemetry(tel))

	attachSinks := func() error {
		// The artifact sinks attach after the baseline stream so they
		// record only the controller's, like the old recorder did.
		if *prefOut != "" {
			ps, perr := newPrefSink(*prefOut)
			if perr != nil {
				return perr
			}
			tel.AddEventSink(ps, true)
		}
		if *rewardOut != "" {
			f, ferr := os.Create(*rewardOut)
			if ferr != nil {
				return ferr
			}
			tel.AddWindowSink(telemetry.NewRewardsCSVSink(f))
		}
		return nil
	}

	var base, r sim.Result
	switch {
	case *jobs > 1 && src != nil && *ckpPath == "" && *prefOut == "":
		// Concurrent mode: baseline and controller simulate in parallel,
		// each on an isolated child collector; merging base-then-ctrl
		// afterwards (artifact sinks attached between the merges)
		// reproduces the serial telemetry streams byte for byte. The
		// -pref sink needs full-rate events, which child collectors do
		// not carry, so that flag forces the serial path.
		var baseCh, ctrlCh *telemetry.Collector
		baseRunner := runner.With(sim.WithBaseline())
		ctrlRunner := runner
		if tel != nil {
			baseCh, ctrlCh = tel.Child(), tel.Child()
			baseRunner = baseRunner.With(sim.WithTelemetry(baseCh))
			ctrlRunner = ctrlRunner.With(sim.WithTelemetry(ctrlCh))
		}
		var baseErr, ctrlErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); base, baseErr = baseRunner.Run(tr, nil) }()
		go func() { defer wg.Done(); r, ctrlErr = ctrlRunner.Run(tr, src) }()
		wg.Wait()
		if baseErr != nil {
			return baseErr
		}
		if ctrlErr != nil {
			return ctrlErr
		}
		if tel != nil {
			tel.Merge(baseCh)
			if err := attachSinks(); err != nil {
				return err
			}
			tel.Merge(ctrlCh)
		}
		fmt.Printf("workload %s: %s\n", tr.Name, tr.ComputeStats())
		fmt.Printf("baseline: IPC=%.3f MPKI=%.2f LLC misses=%d\n", base.IPC, base.MPKI, base.LLCMisses)

	default:
		base, err = runner.With(sim.WithBaseline()).Run(tr, nil)
		if err != nil {
			return err
		}
		fmt.Printf("workload %s: %s\n", tr.Name, tr.ComputeStats())
		fmt.Printf("baseline: IPC=%.3f MPKI=%.2f LLC misses=%d\n", base.IPC, base.MPKI, base.LLCMisses)
		if src == nil {
			return nil
		}
		if err := attachSinks(); err != nil {
			return err
		}

		if *ckpPath != "" {
			// Fault-tolerant path: periodic checkpoints, plus a final one
			// on SIGINT/SIGTERM so an interrupted run can continue with
			// -resume.
			var interrupted atomic.Bool
			sigc := make(chan os.Signal, 1)
			signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
			defer signal.Stop(sigc)
			go func() {
				<-sigc
				fmt.Fprintln(os.Stderr, "signal received; writing checkpoint...")
				interrupted.Store(true)
			}()
			r, err = runCheckpointed(runner.With(sim.WithInterrupt(&interrupted)), tr, src, *ckpPath, *ckpEvery, *resume, os.Stderr)
			if err != nil {
				return err
			}
		} else if r, err = runner.Run(tr, src); err != nil {
			return err
		}
	}
	fmt.Printf("%s: accuracy=%.1f%% coverage=%.1f%% MPKI=%.2f IPC=%.3f (%+.1f%%)\n",
		r.Source, 100*r.Accuracy, 100*r.Coverage, r.MPKI, r.IPC, 100*r.IPCImprovement(base))
	fmt.Printf("  prefetches: issued=%d useful=%d late=%d dropped=%d\n",
		r.PrefetchesIssued, r.UsefulPrefetches, r.LatePrefetchHits, r.DroppedPrefetches)
	if *prefOut != "" {
		fmt.Printf("wrote prefetch log to %s\n", *prefOut)
	}
	if *rewardOut != "" {
		fmt.Printf("wrote reward/action windows to %s\n", *rewardOut)
	}

	if *saveModel != "" {
		if err := saveModelFile(src, *saveModel); err != nil {
			return err
		}
		fmt.Printf("saved model to %s\n", *saveModel)
	}
	return nil
}

// prefSink reconstructs the artifact-style .pref.txt from full-rate
// telemetry events: each LLC access event (hit/miss/late-hit) starts a
// line, and every prefetch-issue event appends an address to it.
type prefSink struct {
	f   *os.File
	w   *bufio.Writer
	idx int
	on  bool // a line is open
}

func newPrefSink(path string) (*prefSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &prefSink{f: f, w: bufio.NewWriter(f)}, nil
}

// WriteEvent implements telemetry.Sink.
func (p *prefSink) WriteEvent(e telemetry.Event) error {
	switch {
	case e.Kind.IsAccess():
		if p.on {
			if err := p.w.WriteByte('\n'); err != nil {
				return err
			}
			p.idx++
		}
		p.on = true
		_, err := fmt.Fprintf(p.w, "%d", p.idx)
		return err
	case e.Kind == telemetry.KindPrefetchIssue && p.on:
		_, err := fmt.Fprintf(p.w, " 0x%x", e.Addr)
		return err
	}
	return nil
}

// Close implements telemetry.Sink.
func (p *prefSink) Close() error {
	if p.on {
		if err := p.w.WriteByte('\n'); err != nil {
			return err
		}
	}
	err := p.w.Flush()
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkpointFile is the -checkpoint sink: it lands each checkpoint
// container at path with the store's atomic writer, so the file on
// disk is always the last checkpoint that fully landed. A failed write
// costs durability, not the run: it warns, the previous file survives
// and the next boundary tries again. err is the outcome of the latest
// write — after an interrupt, that of the interrupt's checkpoint — and
// landed reports whether any write succeeded.
type checkpointFile struct {
	path   string
	warn   io.Writer
	err    error
	landed bool
}

func (c *checkpointFile) write(blob []byte, cursor int) error {
	c.err = cas.WriteFileAtomic(c.path, blob)
	if c.err != nil {
		fmt.Fprintf(c.warn, "warning: checkpoint at record %d not written (previous checkpoint kept): %v\n", cursor, c.err)
	} else {
		c.landed = true
	}
	return nil
}

// runCheckpointed runs src under a checkpoint file at path, written
// every `every` records and when runner's interrupt source fires;
// with resume it first continues from the file's bytes. An interrupted
// run returns sim.ErrInterrupted once its final checkpoint is on disk,
// or that write's error if it did not land. A completed run removes
// the file it resumed from or wrote: resuming from it would replay the
// tail of the trace.
func runCheckpointed(runner *sim.Runner, tr *trace.Trace, src sim.Source, path string, every int, resume bool, stderr io.Writer) (sim.Result, error) {
	ckp := &checkpointFile{path: path, warn: stderr}
	opts := []sim.Option{sim.WithCheckpointSink(every, ckp.write)}
	if resume {
		blob, err := os.ReadFile(path)
		if err != nil {
			return sim.Result{}, fmt.Errorf("resume: %w", err)
		}
		opts = append(opts, sim.WithResumeBlob(blob))
	}
	r, err := runner.With(opts...).Run(tr, src)
	switch {
	case errors.Is(err, sim.ErrInterrupted) && ckp.err != nil:
		return r, fmt.Errorf("%w; final checkpoint not written: %w", err, ckp.err)
	case errors.Is(err, sim.ErrInterrupted):
		fmt.Fprintf(stderr, "checkpoint written to %s; rerun with -resume to continue\n", path)
		return r, err
	case err != nil:
		return r, err
	}
	if resume || ckp.landed {
		if err := os.Remove(path); err != nil {
			return r, err
		}
	}
	return r, nil
}

// modelSource is implemented by the RL controllers.
type modelSource interface {
	SaveModel(io.Writer) error
	LoadModel(io.Reader) error
}

func asModelSource(src sim.Source) (modelSource, error) {
	m, ok := src.(modelSource)
	if !ok {
		return nil, fmt.Errorf("controller %q does not support model persistence", src.Name())
	}
	return m, nil
}

func saveModelFile(src sim.Source, path string) error {
	m, err := asModelSource(src)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.SaveModel(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadModelFile(src sim.Source, path string) error {
	m, err := asModelSource(src)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.LoadModel(f)
}
