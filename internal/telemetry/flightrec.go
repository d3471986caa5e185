package telemetry

import (
	"sync"
	"time"
)

// Incident flight recorder: a bounded in-memory ring of recent
// operational events per process, snapshotted — together with the
// collector's retained spans and the metrics-history ring — into an
// incident bundle when something goes wrong (breaker trip, failover,
// retry-budget exhaustion, shed burst, p99 breach, panic restart).
// The bundle is the "what just happened" artifact: it can be pulled
// over HTTP after the fact (GET /debug/incidents), captured manually
// (POST /debug/incidents/capture), and the front door assembles a
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
	// Decorate, when non-nil, is called with each freshly captured
	// incident before it is retained — the daemons attach process
	// context (profile capture manifests, build info) here. It must
	// not call back into the recorder.
	Decorate func(*Incident)
}

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
	// Captures carries daemon-attached context (PR 6 profile capture
	// manifests) installed by RecorderConfig.Decorate.
	Captures any `json:"captures,omitempty"`
	RecorderSnapshot
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
// incident (manual POST /debug/incidents/capture path; Trigger's
// rate-limited path funnels here too). The zero Incident is returned
// for a nil recorder.
func (r *FlightRecorder) Capture(trigger, detail string) Incident {
	if r == nil {
		return Incident{}
	}
	inc := Incident{
		Trigger:          trigger,
		Detail:           detail,
		RecorderSnapshot: r.Snapshot(),
	}
	if r.cfg.Decorate != nil {
		r.cfg.Decorate(&inc)
	}
	r.mu.Lock()
	r.seq++
	inc.Seq = r.seq
	if len(r.incidents) >= r.cfg.IncidentCap {
		copy(r.incidents, r.incidents[1:])
		r.incidents = r.incidents[:len(r.incidents)-1]
	}
	r.incidents = append(r.incidents, inc)
	r.mu.Unlock()
	return inc
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
