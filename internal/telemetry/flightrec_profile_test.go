package telemetry_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resemble/internal/faults"
	"resemble/internal/telemetry"
)

// incidentDirs lists the incident-* directories under dir.
func incidentDirs(t *testing.T, dir string) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(dir, "incident-*"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestFlightRecorderProfileRingFollowsIncidents: profile directories
// live exactly as long as their incidents — with IncidentCap 2, three
// captures leave the two retained incidents' directories.
func TestFlightRecorderProfileRingFollowsIncidents(t *testing.T) {
	dir := t.TempDir()
	r := telemetry.NewFlightRecorder(telemetry.RecorderConfig{IncidentCap: 2, ProfileDir: dir}, nil, nil)
	var incs []telemetry.Incident
	for i := 0; i < 3; i++ {
		inc := r.CaptureProfiled("manual", "", 0)
		if inc.Profile == nil || inc.Profile.Error != "" {
			t.Fatalf("capture %d profile = %+v", i, inc.Profile)
		}
		incs = append(incs, inc)
	}
	got := incidentDirs(t, dir)
	if len(got) != 2 || got[0] != incs[1].Profile.Dir || got[1] != incs[2].Profile.Dir {
		t.Fatalf("incident dirs %v, want the retained %s and %s", got, incs[1].Profile.Dir, incs[2].Profile.Dir)
	}
	if files := incs[2].Profile.Files; len(files) != 1 || files[0] != "heap.pprof" {
		t.Errorf("cpu_ms=0 capture files %v, want [heap.pprof]", files)
	}
}

// TestFlightRecorderProfileDirSweptOnRestart: a restarted process
// (a second recorder on the same ProfileDir, whose seqs start over)
// neither writes into nor leaves behind the first process's
// directories — after two captures by the first and one by the second,
// only the second's directory remains.
func TestFlightRecorderProfileDirSweptOnRestart(t *testing.T) {
	dir := t.TempDir()
	first := telemetry.NewFlightRecorder(telemetry.RecorderConfig{ProfileDir: dir}, nil, nil)
	for i := 0; i < 2; i++ {
		if inc := first.CaptureProfiled("manual", "", 0); inc.Profile == nil || inc.Profile.Error != "" {
			t.Fatalf("first recorder capture %d profile = %+v", i, inc.Profile)
		}
	}
	if got := incidentDirs(t, dir); len(got) != 2 {
		t.Fatalf("first recorder left %v, want two directories", got)
	}
	second := telemetry.NewFlightRecorder(telemetry.RecorderConfig{ProfileDir: dir}, nil, nil)
	inc := second.CaptureProfiled("manual", "", 0)
	if inc.Profile == nil || inc.Profile.Error != "" {
		t.Fatalf("second recorder profile = %+v", inc.Profile)
	}
	if got := incidentDirs(t, dir); len(got) != 1 || got[0] != inc.Profile.Dir {
		t.Fatalf("incident dirs %v, want only the second recorder's %s", got, inc.Profile.Dir)
	}
	files, err := os.ReadDir(inc.Profile.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "heap.pprof" {
		t.Errorf("second recorder's directory holds %v, want only its own heap.pprof", files)
	}
}

// TestFlightRecorderProfileHeapFailureLeavesNoDir: a heap sink failing
// part-way is reported in the bundle, the incident is still retained,
// and no directory is left behind.
func TestFlightRecorderProfileHeapFailureLeavesNoDir(t *testing.T) {
	dir := t.TempDir()
	r := telemetry.NewFlightRecorder(telemetry.RecorderConfig{ProfileDir: dir}, nil, nil)
	injected := errors.New("disk full")
	telemetry.SetHeapSink(r, func(path string) (io.WriteCloser, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		return struct {
			io.Writer
			io.Closer
		}{&faults.FailingWriter{W: f, FailAfter: 1, Err: injected}, f}, nil
	})
	inc := r.CaptureProfiled("manual", "", 0)
	if inc.Profile == nil || !strings.Contains(inc.Profile.Error, "disk full") || inc.Profile.Dir != "" {
		t.Fatalf("bundle profile = %+v, want the injected error and no dir", inc.Profile)
	}
	if got := incidentDirs(t, dir); len(got) != 0 {
		t.Fatalf("failed capture left %v behind", got)
	}
	if len(r.Incidents()) != 1 {
		t.Fatal("failed profile dropped the incident")
	}
}

// TestFlightRecorderTriggerNeverProfiles: automatic triggers fire
// under admission and breaker locks, so they never profile even with a
// ProfileDir.
func TestFlightRecorderTriggerNeverProfiles(t *testing.T) {
	dir := t.TempDir()
	r := telemetry.NewFlightRecorder(telemetry.RecorderConfig{ProfileDir: dir}, nil, nil)
	inc := r.Trigger("breaker.trip", "bo")
	if inc == nil {
		t.Fatal("trigger suppressed")
	}
	if inc.Profile != nil {
		t.Fatalf("automatic trigger profiled: %+v", inc.Profile)
	}
	if got := incidentDirs(t, dir); len(got) != 0 {
		t.Fatalf("automatic trigger wrote %v", got)
	}
}

// TestFlightRecorderProfileCPUBusy: when another CPU profile is
// running, the capture notes it and keeps the heap profile.
func TestFlightRecorderProfileCPUBusy(t *testing.T) {
	stop, err := telemetry.StartProfilesTo(io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	r := telemetry.NewFlightRecorder(telemetry.RecorderConfig{ProfileDir: t.TempDir()}, nil, nil)
	inc := r.CaptureProfiled("manual", "", 10*time.Millisecond)
	p := inc.Profile
	if p == nil || !strings.Contains(p.Error, "cpu profile skipped") || len(p.Files) != 1 || p.Files[0] != "heap.pprof" {
		t.Fatalf("bundle profile = %+v, want the skipped CPU profile noted and heap.pprof kept", p)
	}
	if _, err := os.Stat(filepath.Join(p.Dir, "cpu.pprof")); !os.IsNotExist(err) {
		t.Errorf("skipped CPU profile left a file: stat err = %v", err)
	}
}
