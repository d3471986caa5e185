package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"resemble/internal/cas"
	"resemble/internal/telemetry"
)

func testStore(t *testing.T) *cas.Store {
	t.Helper()
	s, rep, err := cas.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store sweep: %v", rep)
	}
	return s
}

// postCancellable fires one request whose context the caller controls;
// the 504 "client cancelled" answer (or the connection error when the
// context fires first) is discarded — the caller only cares that the
// worker observed the interrupt.
func postCancellable(ctx context.Context, s *Service, req Request) {
	body, _ := json.Marshal(req)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+s.Addr()+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(hr)
	if err == nil {
		resp.Body.Close()
	}
}

// waitStat polls a service counter until it reaches want (or 10s pass).
func waitStat(t *testing.T, label string, want uint64, get func() uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for get() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (at %d)", label, want, get())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRunCheckpointAndResume is the service-level acceptance test for
// durable warm starts: a run interrupted mid-flight leaves a tagged
// checkpoint in the store; re-submitting the identical request with
// resume_from produces a 200 whose result and window stream are
// byte-identical to an uninterrupted run, and the completed run
// releases its checkpoints from the store.
func TestRunCheckpointAndResume(t *testing.T) {
	store := testStore(t)
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Store = store
		c.RunCheckpointEvery = 1024
		c.Telemetry = tel
	})
	req := Request{Workload: "433.milc", Controller: "bo", Accesses: 150000, Seed: 3, ReturnWindows: true}
	key := RunKey(req)

	// Interrupt the first attempt once at least two periodic checkpoints
	// are durable (so the resume point is mid-run, not at zero).
	ctx, cancel := context.WithCancel(context.Background())
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		postCancellable(ctx, s, req)
	}()
	waitStat(t, "run checkpoint writes", 2, func() uint64 { return s.Stats().RunCkpWrites })
	cancel()
	<-clientDone
	// The worker writes the final interrupt checkpoint before the run
	// returns, so once the timeout is accounted the tag is durable.
	waitStat(t, "timed out runs", 1, func() uint64 { return s.Stats().TimedOut })

	id, ok := store.Resolve(CheckpointLatestTag(key))
	if !ok {
		t.Fatalf("interrupted run left no %s tag", CheckpointLatestTag(key))
	}

	// Resume on the same engine; a warm start must report itself.
	resumeReq := req
	resumeReq.ResumeFrom = id.String()
	status, got := post(t, s, resumeReq)
	if status != http.StatusOK {
		t.Fatalf("resumed run: status %d (%s)", status, got.Error)
	}
	if got.ResumedFrom != id.String() {
		t.Fatalf("resumed run reports resumed_from %q, want %q", got.ResumedFrom, id)
	}
	if st := s.Stats(); st.Resumes != 1 || st.ResumeFallbacks != 0 {
		t.Fatalf("stats after resume = %+v", st)
	}
	// Completion released the run's checkpoints.
	if tags := store.Tags(CheckpointTagPrefix(key)); len(tags) != 0 {
		t.Fatalf("completed run left checkpoint tags %v", tags)
	}

	// Reference: the identical request, uninterrupted, on a storeless
	// service — the durability layer must not perturb a single byte.
	refTel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := startService(t, func(c *Config) { c.Telemetry = refTel })
	status, want := post(t, ref, req)
	if status != http.StatusOK {
		t.Fatalf("reference run: status %d (%s)", status, want.Error)
	}

	got.DurationMS, want.DurationMS = 0, 0
	got.CheckpointID, got.ResumedFrom = "", ""
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed response differs from uninterrupted reference:\nwant %+v\ngot  %+v", want, got)
	}
	wj, _ := json.Marshal(want.Windows)
	gj, _ := json.Marshal(got.Windows)
	if len(want.Windows) == 0 || !bytes.Equal(wj, gj) {
		t.Errorf("resumed window stream differs from uninterrupted reference (%d vs %d windows)",
			len(got.Windows), len(want.Windows))
	}
}

// TestResumeFallsBackToScratch pins the degraded path: an unusable
// resume_from (absent blob, or a blob that is not this run's
// checkpoint) yields a correct scratch run, counted as a fallback and
// reported as not-resumed.
func TestResumeFallsBackToScratch(t *testing.T) {
	store := testStore(t)
	s := startService(t, func(c *Config) { c.Store = store; c.RunCheckpointEvery = 1024 })
	req := Request{Workload: "433.milc", Controller: "bo", Accesses: 3000}

	t.Run("absent blob", func(t *testing.T) {
		r := req
		r.ResumeFrom = strings.Repeat("ab", 32) // well-formed, not in the store
		status, resp := post(t, s, r)
		if status != http.StatusOK || resp.Error != "" {
			t.Fatalf("status %d (%s)", status, resp.Error)
		}
		if resp.ResumedFrom != "" {
			t.Fatalf("scratch fallback claimed resumed_from %q", resp.ResumedFrom)
		}
		if st := s.Stats(); st.ResumeFallbacks != 1 {
			t.Fatalf("stats = %+v, want 1 resume fallback", st)
		}
	})
	t.Run("blob that is not a usable checkpoint", func(t *testing.T) {
		id, err := store.Put(cas.KindCheckpoint, []byte("garbage, hashed faithfully"))
		if err != nil {
			t.Fatal(err)
		}
		r := req
		r.ResumeFrom = id.String()
		status, resp := post(t, s, r)
		if status != http.StatusOK || resp.Error != "" {
			t.Fatalf("status %d (%s)", status, resp.Error)
		}
		if resp.ResumedFrom != "" {
			t.Fatalf("scratch fallback claimed resumed_from %q", resp.ResumedFrom)
		}
		if st := s.Stats(); st.ResumeFallbacks != 2 {
			t.Fatalf("stats = %+v, want 2 resume fallbacks", st)
		}
	})
}

// TestResumeValidation: resume_from is rejected up front when it can
// never work — no store attached, or a malformed ID.
func TestResumeValidation(t *testing.T) {
	t.Run("no store", func(t *testing.T) {
		s := startService(t, nil)
		status, resp := post(t, s, Request{
			Workload: "433.milc", Controller: "bo", Accesses: 500,
			ResumeFrom: strings.Repeat("ab", 32),
		})
		if status != http.StatusBadRequest || !strings.Contains(resp.Error, "artifact store") {
			t.Fatalf("status %d (%s), want 400 naming the missing store", status, resp.Error)
		}
	})
	t.Run("malformed id", func(t *testing.T) {
		s := startService(t, func(c *Config) { c.Store = testStore(t) })
		status, resp := post(t, s, Request{
			Workload: "433.milc", Controller: "bo", Accesses: 500,
			ResumeFrom: "not-a-hash",
		})
		if status != http.StatusBadRequest || !strings.Contains(resp.Error, "resume_from") {
			t.Fatalf("status %d (%s), want 400 naming resume_from", status, resp.Error)
		}
	})
}

// TestAbortDuringCheckpointWritesLeavesNoTornState races Abort()
// against in-flight periodic run checkpoints into the artifact store.
// Abort severs the HTTP front mid-write from the clients' point of
// view, but every durable write is atomic (temp + rename): after the
// drain no torn temp file may survive anywhere, and a fresh store
// open's recovery sweep must report clean.
func TestAbortDuringCheckpointWritesLeavesNoTornState(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	store, rep, err := cas.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store sweep: %v", rep)
	}
	s := startService(t, func(c *Config) {
		c.Store = store
		c.RunCheckpointEvery = 512
	})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// Losing the connection to the abort is the point; the engine
			// finishes the runs regardless.
			postCancellable(context.Background(), s, Request{
				Workload: "433.milc", Controller: "bo", Accesses: 20000, Seed: seed,
			})
		}(int64(i))
	}
	// Sever the front only once run checkpoints are in flight.
	waitStat(t, "run checkpoint writes", 2, func() uint64 { return s.Stats().RunCkpWrites })
	s.Abort()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("drain after abort: %v", err)
	}

	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("torn temp file survived: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, rep, err := cas.Open(storeDir); err != nil || !rep.Clean() {
		t.Errorf("store recovery sweep after abort: report %v, err %v", rep, err)
	}
}
