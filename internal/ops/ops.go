// Package ops is the operations HTTP surface both daemons serve —
// resembled (internal/service) and resemblefront (internal/cluster):
// liveness, readiness, counters, the OpenMetrics exposition, the
// metrics-history ring, the incident flight recorder and the drain
// trigger. Each daemon hands in what differs between them as values
// (its readiness decision, /metrics label rules, incident view); the
// handlers themselves are shared.
package ops

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"resemble/internal/telemetry"
)

// RetryAfter is the Retry-After hint attached to every 503 either
// daemon emits: one uniform backpressure contract for clients and
// coordinators.
const RetryAfter = "1"

// Surface is one daemon's ops endpoint set. I is the daemon's incident
// bundle type: the service retains plain telemetry incidents, the front
// door fleet bundles that embed every backend's ring.
type Surface[I any] struct {
	// State reports the lifecycle position for /healthz.
	State func() string
	// Ready decides /readyz: the HTTP status and the JSON body. A 503
	// gets Retry-After.
	Ready func() (int, any)
	// Stats is the /stats JSON view.
	Stats func() any
	// Drain runs the graceful drain POST /drain starts in the
	// background, bounded by DrainTimeout.
	Drain        func(context.Context) error
	DrainTimeout time.Duration
	// Snapshot assembles the exposition behind /metrics and the history
	// samples; Rules fold per-instance series into labeled families.
	Snapshot func() telemetry.RegistrySnapshot
	Rules    []telemetry.LabelRule
	// History (nil when telemetry is off) is the periodic sample ring
	// behind /metrics/history, sampled every HistoryEvery.
	History      *telemetry.History
	HistoryEvery time.Duration
	// Recorder (nil when telemetry is off) is the flight recorder
	// behind /debug/flightrec and the incident endpoints.
	Recorder *telemetry.FlightRecorder
	// Incidents lists the retained incident bundles, oldest first.
	Incidents func() []I
	// Bundle turns a manual recorder capture into the daemon's bundle.
	Bundle func(telemetry.Incident) I
}

// Register mounts the surface on mux:
//
//	GET  /healthz                 liveness (200 while serving HTTP)
//	GET  /readyz                  readiness (503 + reason when not routable)
//	GET  /stats                   the daemon's counters as JSON
//	GET  /metrics                 OpenMetrics/Prometheus text exposition
//	GET  /metrics/history         periodic registry samples (fixed-size ring)
//	GET  /debug/incidents         retained incident bundles
//	POST /debug/incidents/capture snapshot an incident bundle now
//	GET  /debug/flightrec         raw recorder ring snapshot (no incident)
//	POST /drain                   begin graceful shutdown (202)
func (o *Surface[I]) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", o.handleHealthz)
	mux.HandleFunc("GET /readyz", o.handleReadyz)
	mux.HandleFunc("GET /stats", o.handleStats)
	mux.HandleFunc("GET /metrics", o.handleMetrics)
	mux.HandleFunc("GET /metrics/history", o.handleHistory)
	mux.HandleFunc("GET /debug/incidents", o.handleIncidents)
	mux.HandleFunc("POST /debug/incidents/capture", o.handleCapture)
	mux.HandleFunc("GET /debug/flightrec", o.handleFlightRec)
	mux.HandleFunc("POST /drain", o.handleDrain)
}

// RecordHistory samples the exposition into History (which must be
// non-nil) once immediately, so even a short-lived daemon has history,
// and then every HistoryEvery until stop closes, calling onTick (when
// non-nil) after each periodic sample.
func (o *Surface[I]) RecordHistory(stop <-chan struct{}, onTick func()) {
	o.History.Record(time.Now(), o.Snapshot())
	t := time.NewTicker(o.HistoryEvery)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			o.History.Record(now, o.Snapshot())
			if onTick != nil {
				onTick()
			}
		case <-stop:
			return
		}
	}
}

// WriteJSON writes v as indented JSON with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // headers are out; nothing useful to do on error
}

// Unavailable answers 503 + Retry-After with a machine-readable reason
// and a human-readable message.
func Unavailable(w http.ResponseWriter, reason, msg string) {
	w.Header().Set("Retry-After", RetryAfter)
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
		"status": "unavailable",
		"reason": reason,
		"error":  msg,
	})
}

// handleHealthz is the liveness probe. It stays 200 through draining —
// liveness is not readiness.
func (o *Surface[I]) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "state": o.State()})
}

func (o *Surface[I]) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status, body := o.Ready()
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", RetryAfter)
	}
	WriteJSON(w, status, body)
}

func (o *Surface[I]) handleStats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, o.Stats())
}

func (o *Surface[I]) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := o.Snapshot()
	w.Header().Set("Content-Type", telemetry.PromContentType)
	_ = telemetry.WritePrometheus(w, snap, o.Rules...)
}

// handleHistory serves the sample ring (empty when telemetry is off):
// enough to reconstruct the minute of metrics before an incident
// without external scrape infrastructure.
func (o *Surface[I]) handleHistory(w http.ResponseWriter, _ *http.Request) {
	samples := o.History.Samples()
	if samples == nil {
		samples = []telemetry.HistorySample{}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"period_ms": o.HistoryEvery.Milliseconds(),
		"capacity":  o.History.Cap(),
		"count":     len(samples),
		"samples":   samples,
	})
}

func (o *Surface[I]) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	list := o.Incidents()
	if list == nil {
		list = []I{}
	}
	WriteJSON(w, http.StatusOK, map[string]any{"count": len(list), "incidents": list})
}

// handleCapture snapshots an incident bundle on demand, bypassing the
// automatic-trigger rate limit.
func (o *Surface[I]) handleCapture(w http.ResponseWriter, _ *http.Request) {
	if o.Recorder == nil {
		Unavailable(w, "disabled", "flight recorder disabled (no telemetry collector)")
		return
	}
	inc := o.Recorder.Capture("manual: POST /debug/incidents/capture", "")
	WriteJSON(w, http.StatusOK, o.Bundle(inc))
}

// handleFlightRec serves the raw ring snapshot without capturing an
// incident — the per-backend payload a front door pulls when it
// assembles a fleet bundle.
func (o *Surface[I]) handleFlightRec(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, o.Recorder.Snapshot())
}

// handleDrain starts a graceful drain in the background and returns
// immediately; poll /healthz for state=stopped.
func (o *Surface[I]) handleDrain(w http.ResponseWriter, _ *http.Request) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout+10*time.Second)
		defer cancel()
		_ = o.Drain(ctx)
	}()
	WriteJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}
