package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"resemble/internal/checkpoint"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// ErrInterrupted is returned by Runner.Run when the run stopped on an
// interrupt request before reaching the end of the trace. If a
// checkpoint sink was configured, a checkpoint covering the stop point
// was handed to it before returning.
var ErrInterrupted = errors.New("sim: run interrupted")

// ErrBadResume wraps every failure to resume from a WithResumeBlob
// snapshot — unparseable container, wrong trace/source/scope, corrupt
// section. Determinism makes the fallback cheap: a caller that sees
// ErrBadResume rebuilds fresh components and runs from record zero,
// producing the exact result the resumed run would have.
var ErrBadResume = errors.New("sim: resume snapshot unusable")

// CanCheckpoint reports whether src can take part in run
// checkpointing: it implements checkpoint.Stater (or there is no
// source at all — the baseline run checkpoints fine). Attaching a
// checkpoint sink to a run whose source cannot snapshot fails
// at the first checkpoint boundary; callers offering best-effort
// durability probe first and skip checkpointing instead.
func CanCheckpoint(src Source) bool {
	if src == nil {
		return true
	}
	_, ok := src.(checkpoint.Stater)
	return ok
}

// ckpMeta is the checkpoint's "meta" section: where to resume and what
// run the snapshot belongs to. Scope carries the caller's run-identity
// hash (WithCheckpointScope); empty means unscoped.
type ckpMeta struct {
	Cursor    int // next record index to process
	TraceName string
	TraceLen  int
	Source    string
	Scope     string
}

// simulate drives the record loop from start: warmup-boundary reset,
// per-record stepping, and — when the settings ask for them —
// checkpoint boundaries and interrupt polling. The common case (no
// checkpoint sink, no interrupt source) takes a branch-free fast loop.
func (s *Simulator) simulate(tr *trace.Trace, src Source, name string, start int, set settings) error {
	warmupEnd := int(float64(len(tr.Records)) * s.cfg.WarmupFraction)
	if set.ckpSink == nil && set.interrupt == nil && set.stopAfter <= 0 {
		for i := start; i < len(tr.Records); i++ {
			rec := tr.Records[i]
			if i == warmupEnd {
				s.resetMeasurement(rec.ID)
			}
			s.step(rec, src)
		}
		return nil
	}
	processed := 0
	for i := start; i < len(tr.Records); i++ {
		rec := tr.Records[i]
		if i == warmupEnd {
			s.resetMeasurement(rec.ID)
		}
		s.step(rec, src)
		processed++
		cursor := i + 1
		if cursor == len(tr.Records) {
			break // run complete; no trailing checkpoint needed
		}
		interrupted := (set.interrupt != nil && set.interrupt.Load()) ||
			(set.stopAfter > 0 && processed >= set.stopAfter)
		if set.ckpSink != nil && (interrupted || (set.ckpEvery > 0 && cursor%set.ckpEvery == 0)) {
			csp := set.tel.RunSpanChild("checkpoint.write")
			err := s.emitCheckpoint(tr, src, name, set, cursor)
			csp.End()
			if err != nil {
				return err
			}
		}
		if interrupted {
			return fmt.Errorf("%w at record %d/%d", ErrInterrupted, cursor, len(tr.Records))
		}
	}
	return nil
}

// emitCheckpoint builds the snapshot, serializes it once and hands the
// container bytes to the checkpoint sink.
func (s *Simulator) emitCheckpoint(tr *trace.Trace, src Source, name string, set settings, cursor int) error {
	b, err := s.buildCheckpoint(tr, src, name, set.tel, cursor, set.ckpScope)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		return err
	}
	if err := set.ckpSink(buf.Bytes(), cursor); err != nil {
		return fmt.Errorf("sim: checkpoint sink at record %d: %w", cursor, err)
	}
	return nil
}

// buildCheckpoint snapshots the run: a meta section (cursor and run
// identity), the simulator, the source, and the telemetry collector
// when one is attached.
func (s *Simulator) buildCheckpoint(tr *trace.Trace, src Source, name string, tel *telemetry.Collector, cursor int, scope string) (*checkpoint.Builder, error) {
	b := checkpoint.NewBuilder()
	meta := ckpMeta{Cursor: cursor, TraceName: tr.Name, TraceLen: len(tr.Records), Source: name, Scope: scope}
	if err := b.Add("meta", func(w io.Writer) error { return gob.NewEncoder(w).Encode(&meta) }); err != nil {
		return nil, err
	}
	if err := b.Add("sim", s.SaveState); err != nil {
		return nil, err
	}
	if src != nil {
		st, ok := src.(checkpoint.Stater)
		if !ok {
			return nil, fmt.Errorf("sim: source %q does not support checkpointing", name)
		}
		if err := b.Add("source", st.SaveState); err != nil {
			return nil, err
		}
	}
	if tel != nil {
		if err := b.Add("telemetry", tel.SaveState); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// loadCheckpointBlob restores the run state from serialized container
// bytes. Every failure — parse, validation, section restore — comes
// back wrapped in ErrBadResume so callers can fall back to a scratch
// run (after rebuilding fresh components).
func (s *Simulator) loadCheckpointBlob(blob []byte, tr *trace.Trace, src Source, name string, tel *telemetry.Collector, scope string) (int, error) {
	f, err := checkpoint.Read(bytes.NewReader(blob))
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadResume, err)
	}
	cursor, err := s.restoreCheckpoint(f, tr, src, name, tel, scope)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadResume, err)
	}
	return cursor, nil
}

// restoreCheckpoint hands a parsed container back to the run's
// components, validating the meta section first.
func (s *Simulator) restoreCheckpoint(f *checkpoint.File, tr *trace.Trace, src Source, name string, tel *telemetry.Collector, scope string) (int, error) {
	var meta ckpMeta
	if err := f.Load("meta", func(r io.Reader) error { return gob.NewDecoder(r).Decode(&meta) }); err != nil {
		return 0, err
	}
	if meta.TraceName != tr.Name || meta.TraceLen != len(tr.Records) {
		return 0, fmt.Errorf("sim: checkpoint belongs to trace %q (%d records), not %q (%d records)",
			meta.TraceName, meta.TraceLen, tr.Name, len(tr.Records))
	}
	if meta.Source != name {
		return 0, fmt.Errorf("sim: checkpoint belongs to source %q, not %q", meta.Source, name)
	}
	if scope != "" && meta.Scope != scope {
		return 0, fmt.Errorf("sim: checkpoint scope %q does not match run scope %q", meta.Scope, scope)
	}
	if meta.Cursor < 0 || meta.Cursor > len(tr.Records) {
		return 0, fmt.Errorf("sim: checkpoint cursor %d out of range [0,%d]", meta.Cursor, len(tr.Records))
	}
	if err := f.Load("sim", s.LoadState); err != nil {
		return 0, err
	}
	if src != nil {
		st, ok := src.(checkpoint.Stater)
		if !ok {
			return 0, fmt.Errorf("sim: source %q does not support checkpointing", name)
		}
		if err := f.Load("source", st.LoadState); err != nil {
			return 0, err
		}
	}
	// Telemetry restore runs after BeginRun (which reset the window
	// index and diff baseline) so the collector continues the original
	// window sequence.
	if tel != nil && f.Has("telemetry") {
		if err := f.Load("telemetry", tel.LoadState); err != nil {
			return 0, err
		}
	}
	return meta.Cursor, nil
}
