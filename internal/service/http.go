package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"resemble/internal/cas"
	"resemble/internal/ops"
	"resemble/internal/resilience"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// Request is one simulation job submitted to POST /v1/run.
type Request struct {
	// Workload is a suite workload name (see trace.Names()).
	Workload string `json:"workload"`
	// Controller selects the prefetch source: an ensemble controller
	// ("resemble", "resemble-t", "sbp-e"), a solo arm ("bo", "spp",
	// "isb", "domino"), or "none" for the no-prefetch baseline.
	Controller string `json:"controller"`
	// Accesses is the trace length (0 = the service default).
	Accesses int `json:"accesses,omitempty"`
	// Seed offsets the workload's trace seed and the controller seed.
	Seed int64 `json:"seed,omitempty"`
	// FixedFrac, when non-zero, makes DQN controllers serve action
	// selection from a 16-bit fixed-point model snapshot with this many
	// fractional bits (1..14); 0 keeps float64 serving. Ignored by
	// non-DQN controllers.
	FixedFrac uint `json:"fixed_frac,omitempty"`
	// ReturnWindows asks for the run's telemetry window snapshots in
	// the response, so a coordinator in another process can merge them
	// in its own admission order (the cluster determinism contract).
	// Requires the service to run with a telemetry collector; without
	// one the response simply carries no windows.
	ReturnWindows bool `json:"return_windows,omitempty"`
	// ReturnSpans asks for the request's finished span records in the
	// response — the request→admission→worker→sim tree — so a
	// coordinator can stitch them into its own trace (it sends the
	// parent context in the X-Resemble-Trace-Parent header, see
	// telemetry.TraceParentHeader). Mirrors ReturnWindows: without a
	// telemetry collector the response simply carries no spans.
	ReturnSpans bool `json:"return_spans,omitempty"`
	// ResumeFrom, when non-empty, is the hex ID of a run checkpoint in
	// the service's artifact store to warm-start from. The checkpoint
	// must belong to this exact run (the scope hash is verified on
	// restore); an unusable snapshot — missing, corrupt, or for a
	// different run — degrades to a scratch run, never a wrong one,
	// and the response's resumed_from stays empty. Requires
	// Config.Store; rejected with 400 otherwise.
	ResumeFrom string `json:"resume_from,omitempty"`
}

// Response is the outcome of one simulation request.
type Response struct {
	Workload          string  `json:"workload,omitempty"`
	Controller        string  `json:"controller,omitempty"`
	Accesses          int     `json:"accesses,omitempty"`
	Seed              int64   `json:"seed"`
	IPC               float64 `json:"ipc,omitempty"`
	MPKI              float64 `json:"mpki,omitempty"`
	Accuracy          float64 `json:"accuracy,omitempty"`
	Coverage          float64 `json:"coverage,omitempty"`
	Instructions      uint64  `json:"instructions,omitempty"`
	LLCMisses         uint64  `json:"llc_misses,omitempty"`
	PrefetchesIssued  uint64  `json:"prefetches_issued,omitempty"`
	UsefulPrefetches  uint64  `json:"useful_prefetches,omitempty"`
	DroppedPrefetches uint64  `json:"dropped_prefetches,omitempty"`
	// ExcludedArms lists ensemble arms left out because their circuit
	// breakers were open at admission.
	ExcludedArms []string `json:"excluded_arms,omitempty"`
	// MaskedArms lists arms the controller's accuracy masking had
	// quarantined when the run ended.
	MaskedArms []string `json:"masked_arms,omitempty"`
	DurationMS float64  `json:"duration_ms,omitempty"`
	Error      string   `json:"error,omitempty"`
	// Windows carries the run's telemetry window snapshots when the
	// request set ReturnWindows (and telemetry is enabled) — exactly
	// the stream the run's child collector committed, in order.
	Windows []telemetry.WindowSnapshot `json:"windows,omitempty"`
	// Spans carries the request's finished span records when the
	// request set ReturnSpans (and telemetry is enabled): the run's
	// spans from the isolated child collector followed by the
	// service-level admission/worker/request spans. Timestamps are on
	// this process's timeline; the adopter re-anchors them
	// (telemetry.AnchorSpans).
	Spans []telemetry.SpanRecord `json:"spans,omitempty"`
	// CheckpointID is the store ID of the last durable checkpoint the
	// run wrote (empty when no store is attached or no boundary was
	// reached). A completed run releases its checkpoints for GC, so
	// the ID documents that checkpointing happened rather than
	// promising the blob is still resolvable.
	CheckpointID string `json:"checkpoint_id,omitempty"`
	// ResumedFrom echoes resume_from when the run actually warm-started
	// from that checkpoint; empty means the run executed from scratch.
	ResumedFrom string `json:"resumed_from,omitempty"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/run          submit a simulation, wait for its result
//	GET  /v1/explain      recent sampled RL decision records
//
// plus the shared ops surface (see ops.Surface.Register): /healthz,
// /readyz, /stats, /metrics, /metrics/history, POST /drain and the
// flight-recorder endpoints /debug/incidents, POST
// /debug/incidents/capture and /debug/flightrec (empty results, or a
// 503 for capture, when telemetry is off). With Config.ProfileDir set,
// a capture's bundle also carries CPU (?cpu_ms=, default 2000) and
// heap profile evidence.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	s.ops.Register(mux)
	return mux
}

// unavailable answers 503 with the shedding contract's Retry-After.
func unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", ops.RetryAfter)
	ops.WriteJSON(w, http.StatusServiceUnavailable, Response{Error: msg})
}

// handleRun validates, admits and awaits one simulation request.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		ops.WriteJSON(w, http.StatusBadRequest, Response{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Workload == "" || req.Controller == "" {
		ops.WriteJSON(w, http.StatusBadRequest, Response{Error: "workload and controller are required"})
		return
	}
	if _, err := trace.Lookup(req.Workload); err != nil {
		ops.WriteJSON(w, http.StatusBadRequest, Response{Error: err.Error()})
		return
	}
	if !validController(req.Controller) {
		ops.WriteJSON(w, http.StatusBadRequest,
			Response{Error: fmt.Sprintf("unknown controller %q (want one of %v)", req.Controller, Controllers())})
		return
	}
	if req.Accesses == 0 {
		req.Accesses = s.cfg.DefaultAccesses
	}
	if req.Accesses < 0 || req.Accesses > maxAccesses {
		ops.WriteJSON(w, http.StatusBadRequest,
			Response{Error: fmt.Sprintf("accesses %d out of range [1,%d]", req.Accesses, maxAccesses)})
		return
	}
	if req.FixedFrac > 14 {
		ops.WriteJSON(w, http.StatusBadRequest,
			Response{Error: fmt.Sprintf("fixed_frac %d out of range [0,14]", req.FixedFrac)})
		return
	}
	if req.ResumeFrom != "" {
		if s.cfg.Store == nil {
			ops.WriteJSON(w, http.StatusBadRequest,
				Response{Error: "resume_from requires an artifact store (service has none attached)"})
			return
		}
		if _, err := cas.ParseID(req.ResumeFrom); err != nil {
			ops.WriteJSON(w, http.StatusBadRequest,
				Response{Error: "bad resume_from: " + err.Error()})
			return
		}
	}

	// A coordinator propagating its trace context parents this
	// request's span tree under its own attempt span; a missing or
	// malformed header degrades to a locally rooted tree.
	ref, _ := telemetry.ParseSpanRef(r.Header.Get(telemetry.TraceParentHeader))
	t, err := s.admit(r.Context(), req, ref)
	if err != nil {
		unavailable(w, err.Error())
		return
	}
	select {
	case <-t.done:
		if t.status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", ops.RetryAfter)
		}
		ops.WriteJSON(w, t.status, t.resp)
	case <-r.Context().Done():
		// Client gave up; cancel the task (the worker will observe the
		// interrupt and wind down) but keep the connection contract.
		t.cancel()
		ops.WriteJSON(w, http.StatusGatewayTimeout, Response{Error: "client cancelled"})
	}
}

// admit sequences the request into the bounded queue under the
// admission lock, so queue FIFO order and telemetry commit order
// agree. Shedding and draining surface as errors for the 503 path.
// A non-zero ref (inbound trace context) parents the request span
// under the coordinator's attempt span instead of a local root.
func (s *Service) admit(parent context.Context, req Request, ref telemetry.SpanRef) (*task, error) {
	ctx, cancel := context.WithTimeout(parent, s.cfg.RequestTimeout)
	t := &task{req: req, ctx: ctx, cancel: cancel, done: make(chan struct{})}

	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.State() != Ready {
		cancel()
		s.mRejected.Inc()
		return nil, errors.New("service is draining")
	}
	t.seq = s.nextSeq
	// The request span roots the task's trace tree; admission itself is
	// its first child. Both must exist before Offer publishes the task:
	// a worker may dequeue it immediately, and the queue handoff is the
	// only happens-before edge it gets. Created under admitMu, so span
	// ordinals follow admission order. On shed the spans are never
	// ended, so nothing is recorded for requests that were never run.
	// Under an inbound trace context the span ID derives from the
	// coordinator's (globally unique) attempt ID rather than the local
	// admission ordinal, so the stitched identity is independent of
	// this backend's worker count and admission history.
	if ref.ID != 0 {
		t.span = s.cfg.Telemetry.StartSpanUnder(ref, "request")
	} else {
		t.span = s.cfg.Telemetry.StartSpan(fmt.Sprintf("req:%04d", t.seq), "request")
	}
	t.admitSpan = t.span.Child("admission")
	if err := s.queue.Offer(t); err != nil {
		cancel()
		if errors.Is(err, resilience.ErrShed) {
			s.mShed.Inc()
			// The recorder snapshot is taken under admitMu; the rate
			// limit keeps a shed storm to one capture per interval.
			s.recorder.Trigger("shed.burst",
				fmt.Sprintf("queue full (%d deep)", s.queue.Capacity()))
			return nil, fmt.Errorf("queue full (%d deep): request shed", s.queue.Capacity())
		}
		s.mRejected.Inc()
		return nil, err
	}
	s.nextSeq++
	s.mAdmitted.Inc()
	t.admitSpan.End()
	return t, nil
}

func validController(name string) bool {
	for _, c := range Controllers() {
		if c == name {
			return true
		}
	}
	return false
}

// Readiness reasons reported by /readyz 503s. The cluster front
// door's health prober branches on them: "draining" means the backend
// is leaving on purpose (route away, don't alarm), "overloaded" means
// it is alive but saturated (route away, expect it back).
const (
	ReadyReasonDraining   = "draining"
	ReadyReasonOverloaded = "overloaded"
	ReadyReasonStarting   = "starting"
)

// readiness is the /readyz decision: 200 only while the service is
// admitting and the queue has headroom. Load balancers stop routing
// here first, before the queue starts shedding. The 503 body carries
// a distinct reason ("draining" vs "overloaded") so a coordinator can
// tell a deliberate departure from transient saturation.
func (s *Service) readiness() (int, any) {
	reason := ""
	switch state := s.State(); {
	case state == Starting:
		reason = ReadyReasonStarting
	case state != Ready:
		reason = ReadyReasonDraining
	case s.queue.Saturated():
		reason = ReadyReasonOverloaded
	default:
		return http.StatusOK, map[string]any{
			"status":      "ok",
			"queue_depth": s.queue.Depth(),
			"queue_cap":   s.queue.Capacity(),
		}
	}
	return http.StatusServiceUnavailable, map[string]any{"status": "unavailable", "reason": reason}
}

// handleExplain returns the most recent sampled RL decision records
// (?n= bounds the count, default 50, max 1000). Empty when telemetry
// or explain sampling is disabled.
func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	n := 50
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			ops.WriteJSON(w, http.StatusBadRequest, Response{Error: "n must be a positive integer"})
			return
		}
		n = min(v, 1000)
	}
	ds := s.cfg.Telemetry.Decisions()
	if len(ds) > n {
		ds = ds[len(ds)-n:]
	}
	if ds == nil {
		ds = []telemetry.Decision{}
	}
	ops.WriteJSON(w, http.StatusOK, map[string]any{
		"sample_rate": s.cfg.Telemetry.ExplainSample(),
		"count":       len(ds),
		"decisions":   ds,
	})
}
