package telemetry

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"resemble/internal/pprofparse"
)

// Incident flight recorder: a bounded in-memory ring of recent
// operational events per process, snapshotted — together with the
// collector's retained spans and the metrics-history ring — into an
// incident bundle when something goes wrong (breaker trip, failover,
// retry-budget exhaustion, shed burst, panic restart). The bundle is
// the "what just happened" artifact: it can be pulled over HTTP after
// the fact (GET /debug/incidents), captured manually (POST
// /debug/incidents/capture, which can also profile the process — see
// RecorderConfig.ProfileDir), and the front door assembles a
// fleet-wide bundle by pulling every backend's ring, so a kill-mid-run
// incident is explainable from one artifact even after the victim
// process is gone.
//
// A nil *FlightRecorder is a valid disabled recorder: Note and Trigger
// cost one nil check, keeping the disabled hot path within the <5 ns
// telemetry budget.

// RecorderConfig parameterizes a FlightRecorder.
type RecorderConfig struct {
	// Process labels this recorder's snapshots (e.g. "resembled
	// 127.0.0.1:8321"); settable later via SetProcess when the listen
	// address is not known at construction.
	Process string
	// EventCap bounds the event ring (default 1024).
	EventCap int
	// IncidentCap bounds the retained incident bundles (default 16,
	// oldest dropped).
	IncidentCap int
	// MinInterval rate-limits automatic triggers (default 5s): a
	// breaker flapping or a shed storm yields one bundle per interval,
	// not thousands. Manual captures bypass it.
	MinInterval time.Duration
	// ProfileDir, when set, makes manual captures (CaptureProfiled)
	// profile the process: each writes incident-<seq>/ under it holding
	// a post-GC heap.pprof and, given a CPU window, a cpu.pprof. A
	// directory lives exactly as long as its incident is retained;
	// incident-* directories an earlier process left are removed before
	// the first profile is written. Automatic triggers never profile.
	ProfileDir string
}

// DefaultProfileCPU is the CPU-profile window of a manual capture that
// does not name one; MaxProfileCPU caps any requested window.
const (
	DefaultProfileCPU = 2 * time.Second
	MaxProfileCPU     = 10 * time.Second
)

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.EventCap <= 0 {
		c.EventCap = 1024
	}
	if c.IncidentCap <= 0 {
		c.IncidentCap = 16
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 5 * time.Second
	}
	return c
}

// RecorderEvent is one operational event in the ring.
type RecorderEvent struct {
	TMS    int64  `json:"t_ms"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// RecorderSnapshot is a point-in-time copy of one process's ring:
// recent events, the collector's retained spans, and the metrics
// history. It is what a fleet bundle holds per backend.
type RecorderSnapshot struct {
	Process string          `json:"process"`
	TMS     int64           `json:"t_ms"`
	Events  []RecorderEvent `json:"events,omitempty"`
	Spans   []SpanRecord    `json:"spans,omitempty"`
	History []HistorySample `json:"history,omitempty"`
}

// Incident is one captured bundle: the snapshot plus what tripped it.
type Incident struct {
	Seq     uint64 `json:"seq"`
	Trigger string `json:"trigger"`
	Detail  string `json:"detail,omitempty"`
	// Profile is the profile evidence of a manual capture on a recorder
	// with a ProfileDir; nil otherwise.
	Profile *IncidentProfile `json:"profile,omitempty"`
	RecorderSnapshot
}

// IncidentProfile is the profile evidence one manual capture wrote:
// its directory, the files in it, and the top flat alloc_space
// symbols decoded from the heap profile. A capture that failed
// part-way leaves no directory behind and carries only Error; Error
// alongside files notes that the CPU profile was skipped because
// another profiler owned the CPU.
type IncidentProfile struct {
	Dir           string             `json:"dir,omitempty"`
	Files         []string           `json:"files,omitempty"`
	TopAllocSpace []pprofparse.Entry `json:"top_alloc_space,omitempty"`
	Error         string             `json:"error,omitempty"`
}

// FlightRecorder owns the ring and the retained incidents.
type FlightRecorder struct {
	mu         sync.Mutex
	cfg        RecorderConfig
	col        *Collector
	hist       *History
	events     []RecorderEvent
	evHead     int
	evN        int
	incidents  []Incident
	seq        uint64
	lastAuto   time.Time
	suppressed uint64
	// stale lists the profile directories of evicted incidents, removed
	// by the next profiled capture so eviction by an automatic trigger
	// does no file I/O under the trigger site's locks.
	stale []string
	// sweep clears ProfileDir of a previous process's incident
	// directories before the first profile is written.
	sweep sync.Once
	// openHeap opens the heap profile sink (os.Create; tests inject
	// failing writers).
	openHeap func(path string) (io.WriteCloser, error)
}

// NewFlightRecorder builds a recorder over the collector's span ring
// and the history ring (either may be nil; the snapshot just omits
// that section).
func NewFlightRecorder(cfg RecorderConfig, col *Collector, hist *History) *FlightRecorder {
	cfg = cfg.withDefaults()
	return &FlightRecorder{
		cfg:    cfg,
		col:    col,
		hist:   hist,
		events: make([]RecorderEvent, cfg.EventCap),
		openHeap: func(path string) (io.WriteCloser, error) {
			return os.Create(path)
		},
	}
}

// SetProcess relabels the recorder (daemons call it once the listen
// address is bound). Nil-safe.
func (r *FlightRecorder) SetProcess(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cfg.Process = name
	r.mu.Unlock()
}

// Note appends one event to the ring. Nil-safe and cheap: events are
// breadcrumbs (a hedge fired, a breaker transitioned), not triggers.
// The nil guard inlines; the append is outlined in note.
func (r *FlightRecorder) Note(kind, detail string) {
	if r != nil {
		r.note(kind, detail)
	}
}

func (r *FlightRecorder) note(kind, detail string) {
	e := RecorderEvent{TMS: time.Now().UnixMilli(), Kind: kind, Detail: detail}
	r.mu.Lock()
	if r.evN < len(r.events) {
		r.events[(r.evHead+r.evN)%len(r.events)] = e
		r.evN++
	} else {
		r.events[r.evHead] = e
		r.evHead = (r.evHead + 1) % len(r.events)
	}
	r.mu.Unlock()
}

// Trigger notes the event and captures an incident bundle unless one
// was captured within MinInterval (returns nil when suppressed, so
// callers can chain fleet-bundle assembly off a real capture only).
// It never profiles: trigger sites hold admission and breaker locks.
// Nil-safe; the guard inlines and the capture path is outlined.
func (r *FlightRecorder) Trigger(trigger, detail string) *Incident {
	if r == nil {
		return nil
	}
	return r.trigger(trigger, detail)
}

func (r *FlightRecorder) trigger(trigger, detail string) *Incident {
	r.note(trigger, detail)
	now := time.Now()
	r.mu.Lock()
	if !r.lastAuto.IsZero() && now.Sub(r.lastAuto) < r.cfg.MinInterval {
		r.suppressed++
		r.mu.Unlock()
		return nil
	}
	r.lastAuto = now
	r.mu.Unlock()
	inc := r.Capture(trigger, detail)
	return &inc
}

// Capture unconditionally snapshots the ring into a new retained
// incident, without profiling (Trigger's rate-limited path funnels
// here). The zero Incident is returned for a nil recorder.
func (r *FlightRecorder) Capture(trigger, detail string) Incident {
	if r == nil {
		return Incident{}
	}
	return r.retain(Incident{Trigger: trigger, Detail: detail, RecorderSnapshot: r.Snapshot()})
}

// CaptureProfiled is the manual capture (POST /debug/incidents/capture):
// Capture plus, with ProfileDir set, profile evidence — a CPU profile
// over the next cpu (capped at MaxProfileCPU; 0 skips it), then a
// post-GC heap profile. The ring is snapshotted after the window, so
// the bundle's spans and history cover what was profiled. Nil-safe.
func (r *FlightRecorder) CaptureProfiled(trigger, detail string, cpu time.Duration) Incident {
	if r == nil || r.cfg.ProfileDir == "" {
		return r.Capture(trigger, detail)
	}
	r.sweep.Do(r.sweepProfileDir)
	// The seq names the directory, so it is taken before the window;
	// retain files the incident in seq order regardless.
	r.mu.Lock()
	r.seq++
	inc := Incident{Seq: r.seq, Trigger: trigger, Detail: detail}
	r.mu.Unlock()
	inc.Profile = r.profile(inc.Seq, min(cpu, MaxProfileCPU))
	inc.RecorderSnapshot = r.Snapshot()
	inc = r.retain(inc)

	r.mu.Lock()
	stale := r.stale
	r.stale = nil
	r.mu.Unlock()
	for _, dir := range stale {
		_ = os.RemoveAll(dir) // best effort: a leftover directory is not evidence lost
	}
	return inc
}

// sweepProfileDir removes every incident-* directory under ProfileDir.
// It runs once, before this recorder writes its first profile, when
// its ring holds no profile directories yet: whatever is there belongs
// to an earlier process on the same directory, whose seqs would
// collide with this one's and which nothing else would ever evict. The
// directories on disk then stay exactly the ring's evidence.
func (r *FlightRecorder) sweepProfileDir() {
	dirs, _ := filepath.Glob(filepath.Join(r.cfg.ProfileDir, "incident-*"))
	for _, dir := range dirs {
		_ = os.RemoveAll(dir) // best effort, like eviction
	}
}

// retain files inc in the incident ring in seq order (assigning the
// next seq when it has none) and evicts the oldest past IncidentCap,
// queueing their profile directories for removal.
func (r *FlightRecorder) retain(inc Incident) Incident {
	r.mu.Lock()
	defer r.mu.Unlock()
	if inc.Seq == 0 {
		r.seq++
		inc.Seq = r.seq
	}
	i := len(r.incidents)
	for i > 0 && r.incidents[i-1].Seq > inc.Seq {
		i--
	}
	r.incidents = slices.Insert(r.incidents, i, inc)
	if n := len(r.incidents) - r.cfg.IncidentCap; n > 0 {
		for _, old := range r.incidents[:n] {
			if old.Profile != nil && old.Profile.Dir != "" {
				r.stale = append(r.stale, old.Profile.Dir)
			}
		}
		r.incidents = slices.Delete(r.incidents, 0, n)
	}
	return inc
}

// profile writes incident seq's profile directory. On failure the
// directory is removed and only the error is reported.
func (r *FlightRecorder) profile(seq uint64, cpu time.Duration) *IncidentProfile {
	p := &IncidentProfile{Dir: filepath.Join(r.cfg.ProfileDir, fmt.Sprintf("incident-%04d", seq))}
	if err := r.writeProfiles(p, cpu); err != nil {
		_ = os.RemoveAll(p.Dir) // best effort: the error below is the report
		return &IncidentProfile{Error: err.Error()}
	}
	return p
}

func (r *FlightRecorder) writeProfiles(p *IncidentProfile, cpu time.Duration) error {
	if err := os.MkdirAll(p.Dir, 0o755); err != nil {
		return err
	}
	// CPU first (the window dominates capture latency), then the heap
	// snapshot so it reflects the end of the window.
	if cpu > 0 {
		busy, err := writeCPUProfile(filepath.Join(p.Dir, "cpu.pprof"), cpu)
		switch {
		case err != nil:
			return fmt.Errorf("cpu profile: %w", err)
		case busy != nil:
			// Another profiler owns the CPU (bench -profile,
			// StartProfiles): note it and keep the heap profile.
			p.Error = fmt.Sprintf("cpu profile skipped: %v", busy)
		default:
			p.Files = append(p.Files, "cpu.pprof")
		}
	}
	heapPath := filepath.Join(p.Dir, "heap.pprof")
	if err := writeHeapProfile(func() (io.WriteCloser, error) { return r.openHeap(heapPath) }); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	p.Files = append(p.Files, "heap.pprof")
	prof, err := pprofparse.ParseFile(heapPath)
	if err != nil {
		return fmt.Errorf("heap profile decode: %w", err)
	}
	p.TopAllocSpace = prof.TopByName("alloc_space", 5)
	return nil
}

// writeCPUProfile profiles the CPU into path for d. busy reports that
// the profile could not start (only one runs per process) and leaves
// no file; err reports a failed write.
func writeCPUProfile(path string, d time.Duration) (busy, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// The CPU profile writer drops sink errors too.
	ew := &errorRecordingWriter{w: f}
	stop, busy := StartProfilesTo(ew, nil)
	if busy != nil {
		f.Close()
		return busy, os.Remove(path)
	}
	time.Sleep(d)
	err = stop()
	if err == nil {
		err = ew.err
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return nil, err
}

// Snapshot copies the ring without capturing an incident — the
// GET /debug/flightrec payload a front door pulls when assembling a
// fleet bundle. Nil-safe.
func (r *FlightRecorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{}
	}
	r.mu.Lock()
	snap := RecorderSnapshot{
		Process: r.cfg.Process,
		TMS:     time.Now().UnixMilli(),
	}
	if r.evN > 0 {
		snap.Events = make([]RecorderEvent, r.evN)
		for i := 0; i < r.evN; i++ {
			snap.Events[i] = r.events[(r.evHead+i)%len(r.events)]
		}
	}
	r.mu.Unlock()
	// Span and history rings have their own locks; don't hold ours.
	snap.Spans = r.col.Spans()
	snap.History = r.hist.Samples()
	return snap
}

// Incidents returns the retained bundles, oldest first. Nil-safe.
func (r *FlightRecorder) Incidents() []Incident {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Incident(nil), r.incidents...)
}

// Suppressed reports how many automatic triggers the rate limit
// swallowed (their Note breadcrumbs are still in the ring).
func (r *FlightRecorder) Suppressed() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suppressed
}
