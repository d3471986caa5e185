package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"resemble/internal/sim"
	"resemble/internal/trace"
)

// checkpointFixture is a short tabular-controller run: the trace, a
// source factory (every session needs fresh controller state) and the
// uninterrupted result.
func checkpointFixture(t *testing.T) (*trace.Trace, func() sim.Source, sim.Result) {
	t.Helper()
	tr, err := loadTrace("471.omnetpp", "", 6000, 0)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() sim.Source {
		src, err := buildSource("resemble-t", 64, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	want, err := sim.NewRunner(sim.DefaultConfig()).Run(tr, mk())
	if err != nil {
		t.Fatal(err)
	}
	return tr, mk, want
}

// TestCheckpointFileInterruptResume: an interrupted -checkpoint run
// leaves a file that -resume continues to the uninterrupted result,
// and the completed run removes the file.
func TestCheckpointFileInterruptResume(t *testing.T) {
	tr, mk, want := checkpointFixture(t)
	runner := sim.NewRunner(sim.DefaultConfig())
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var stderr bytes.Buffer
	if _, err := runCheckpointed(runner.With(sim.WithStopAfter(2500)), tr, mk(), path, 1000, false, &stderr); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("interrupted run: err = %v, want ErrInterrupted", err)
	}
	if !strings.Contains(stderr.String(), "checkpoint written to "+path) {
		t.Fatalf("interrupted run did not report its checkpoint: %q", stderr.String())
	}
	got, err := runCheckpointed(runner, tr, mk(), path, 1000, true, &stderr)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed result differs from uninterrupted:\nwant %+v\ngot  %+v", want, got)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed run left its checkpoint behind (stat err %v)", err)
	}
}

// TestCheckpointFileWriteFailure: a failed periodic write warns and the
// run completes with the uninterrupted result; a failed final write on
// interrupt is the run's error and never claims a checkpoint.
func TestCheckpointFileWriteFailure(t *testing.T) {
	tr, mk, want := checkpointFixture(t)
	runner := sim.NewRunner(sim.DefaultConfig())
	// The checkpoint's parent is a regular file: every write fails.
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(blocker, "run.ckpt")

	var stderr bytes.Buffer
	got, err := runCheckpointed(runner, tr, mk(), path, 1000, false, &stderr)
	if err != nil {
		t.Fatalf("run with failing periodic writes: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("result under failing checkpoint writes differs:\nwant %+v\ngot  %+v", want, got)
	}
	if n := strings.Count(stderr.String(), "warning: checkpoint at record"); n != 5 {
		t.Errorf("warned %d times, want 5 (one per boundary of 6000 records every 1000):\n%s", n, stderr.String())
	}

	stderr.Reset()
	_, err = runCheckpointed(runner.With(sim.WithStopAfter(2500)), tr, mk(), path, 1000, false, &stderr)
	if err == nil || !strings.Contains(err.Error(), "final checkpoint not written") {
		t.Fatalf("interrupt with a failing final write: err = %v, want the write error", err)
	}
	if strings.Contains(stderr.String(), "checkpoint written to") {
		t.Errorf("a failed final write claimed a checkpoint: %q", stderr.String())
	}
}

// TestCheckpointFileResumeErrors: -resume from a missing or corrupt
// file is an error, not a silent scratch run.
func TestCheckpointFileResumeErrors(t *testing.T) {
	tr, mk, _ := checkpointFixture(t)
	runner := sim.NewRunner(sim.DefaultConfig())
	dir := t.TempDir()

	t.Run("missing", func(t *testing.T) {
		_, err := runCheckpointed(runner, tr, mk(), filepath.Join(dir, "none.ckpt"), 1000, true, &bytes.Buffer{})
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("err = %v, want a not-exist error", err)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		path := filepath.Join(dir, "run.ckpt")
		if _, err := runCheckpointed(runner.With(sim.WithStopAfter(1500)), tr, mk(), path, 0, false, &bytes.Buffer{}); !errors.Is(err, sim.ErrInterrupted) {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := runCheckpointed(runner, tr, mk(), path, 1000, true, &bytes.Buffer{}); !errors.Is(err, sim.ErrBadResume) {
			t.Fatalf("err = %v, want ErrBadResume", err)
		}
	})
}
