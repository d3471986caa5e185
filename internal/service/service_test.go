package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// startService builds and starts a service, tied to the test's
// lifetime. mutate adjusts the config before New.
func startService(t *testing.T, mutate func(*Config)) *Service {
	t.Helper()
	cfg := Config{
		Workers:         2,
		QueueDepth:      8,
		RequestTimeout:  30 * time.Second,
		DrainTimeout:    30 * time.Second,
		DefaultAccesses: 2000,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// post fires one request at the running service and decodes the reply.
func post(t *testing.T, s *Service, req Request) (int, Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

func getStatus(t *testing.T, s *Service, path string) int {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServiceHappyPathMatchesBatch pins the acceptance criterion: a
// zero-fault service soak produces telemetry window output
// byte-identical to the equivalent batch sim.Runner invocation over
// the same (workload, controller) sequence.
func TestServiceHappyPathMatchesBatch(t *testing.T) {
	reqs := []Request{
		{Workload: "433.milc", Controller: "resemble-t", Accesses: 3000},
		{Workload: "433.milc", Controller: "bo", Accesses: 3000},
		{Workload: "471.omnetpp", Controller: "resemble-t", Accesses: 3000, Seed: 7},
		{Workload: "433.milc", Controller: "none", Accesses: 3000},
		{Workload: "471.omnetpp", Controller: "sbp-e", Accesses: 3000},
	}

	svcTel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = svcTel })
	for i, req := range reqs {
		status, resp := post(t, s, req)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, status, resp.Error)
		}
		if req.Controller != "none" && resp.IPC <= 0 {
			t.Fatalf("request %d: non-positive IPC %v", i, resp.IPC)
		}
		// In-run masking may quarantine a genuinely weak arm on a short
		// trace (that is adaptation, not a fault), but no breaker may
		// open on a zero-fault soak short of its consecutive-failure
		// threshold — exclusions would diverge from the batch runner.
		if len(resp.ExcludedArms) != 0 {
			t.Fatalf("request %d: zero-fault run excluded arms %v", i, resp.ExcludedArms)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Batch equivalent: the same runs, serially, through one runner
	// instrumented with one collector. A second (never-started) service
	// with identical config supplies byte-identical source construction.
	batchTel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{DefaultAccesses: 2000, Telemetry: batchTel})
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunner(sim.DefaultConfig(), sim.WithTelemetry(batchTel))
	for i, req := range reqs {
		w, err := trace.Lookup(req.Workload)
		if err != nil {
			t.Fatal(err)
		}
		tr := ref.cfg.Traces.Get(w, req.Accesses, w.Seed+req.Seed)
		src, _, _, _, err := ref.buildSource(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runner.Run(tr, src); err != nil {
			t.Fatalf("batch run %d: %v", i, err)
		}
	}

	got, err := json.Marshal(svcTel.Windows())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(batchTel.Windows())
	if err != nil {
		t.Fatal(err)
	}
	if len(svcTel.Windows()) == 0 {
		t.Fatal("service produced no telemetry windows")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service windows diverge from batch: %d vs %d windows",
			len(svcTel.Windows()), len(batchTel.Windows()))
	}
}

// TestServiceConcurrentCommitsInOrder: concurrent submissions through
// multiple workers still merge telemetry children in admission order —
// the window stream lists each admitted run's windows contiguously.
func TestServiceConcurrentCommitsInOrder(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Telemetry = tel
		c.Workers = 4
	})
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			status, resp := func() (int, Response) {
				body, _ := json.Marshal(Request{Workload: "433.milc", Controller: "bo", Accesses: 2500})
				r, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return 0, Response{}
				}
				defer r.Body.Close()
				var out Response
				_ = json.NewDecoder(r.Body).Decode(&out)
				return r.StatusCode, out
			}()
			if status != http.StatusOK {
				errs <- fmt.Errorf("status %d (%s)", status, resp.Error)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// All runs identical → every run's windows must appear as complete
	// consecutive blocks (window indices restart at each run boundary).
	wins := tel.Windows()
	if len(wins) == 0 || len(wins)%n != 0 {
		t.Fatalf("window count %d not a multiple of %d runs", len(wins), n)
	}
	per := len(wins) / n
	for i, w := range wins {
		if w.Window != i%per {
			t.Fatalf("window %d: index %d breaks the per-run sequence (want %d)", i, w.Window, i%per)
		}
	}
}

func TestServiceValidation(t *testing.T) {
	s := startService(t, nil)
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"unknown workload", Request{Workload: "no-such-workload", Controller: "bo"}},
		{"unknown controller", Request{Workload: "433.milc", Controller: "magic"}},
		{"missing fields", Request{}},
		{"oversized trace", Request{Workload: "433.milc", Controller: "bo", Accesses: 1 << 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, resp := post(t, s, tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", status, resp.Error)
			}
			if resp.Error == "" {
				t.Fatal("400 without an error message")
			}
		})
	}
}

// TestServiceDrain: drain is idempotent and flips state to stopped.
func TestServiceDrain(t *testing.T) {
	s := startService(t, nil)
	if status, _ := post(t, s, Request{Workload: "433.milc", Controller: "bo", Accesses: 2000}); status != http.StatusOK {
		t.Fatalf("warmup request: status %d", status)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second drain not idempotent: %v", err)
	}
	if s.State() != Stopped {
		t.Fatalf("state = %v, want stopped", s.State())
	}
}

// TestServiceProbes: healthz stays alive through draining; readyz
// flips to 503 once draining starts.
func TestServiceProbes(t *testing.T) {
	s := startService(t, nil)
	if got := getStatus(t, s, "/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := getStatus(t, s, "/readyz"); got != http.StatusOK {
		t.Fatalf("readyz = %d", got)
	}
	if got := getStatus(t, s, "/metrics"); got != http.StatusOK {
		t.Fatalf("metrics = %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The HTTP server shuts down with the drain, so probe the state
	// machine directly post-drain.
	if s.State() != Stopped {
		t.Fatalf("state after drain = %v", s.State())
	}
}

// getReadyz fetches /readyz and decodes status, Retry-After and the
// machine-readable reason.
func getReadyz(t *testing.T, addr string) (int, string, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Reason string `json:"reason"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), body.Reason
}

// TestReadyzReasons pins the readiness contract the cluster front door
// branches on: a draining service reports reason "draining", a
// saturated one "overloaded", and both 503s carry Retry-After.
func TestReadyzReasons(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		s := startService(t, nil)
		// Flip the lifecycle without tearing down the HTTP server so the
		// probe can still be scraped mid-drain.
		s.state.Store(int32(Draining))
		status, retryAfter, reason := getReadyz(t, s.Addr())
		if status != http.StatusServiceUnavailable || reason != ReadyReasonDraining {
			t.Fatalf("readyz = %d reason %q, want 503 %q", status, reason, ReadyReasonDraining)
		}
		if retryAfter == "" {
			t.Fatal("draining 503 missing Retry-After")
		}
		s.state.Store(int32(Ready)) // let Close drain normally
	})
	t.Run("overloaded", func(t *testing.T) {
		s := startService(t, func(c *Config) {
			c.Workers = 1
			c.QueueDepth = 1
			c.RequestTimeout = 2 * time.Second
			// The stall is context-bounded, so the worker frees itself at
			// the request deadline and the drain stays fast.
			c.Chaos = &Chaos{SlowHandler: time.Hour}
		})
		// One request occupies the worker, the next fills the 1-deep
		// queue; readyz must then report overloaded.
		for i := 0; i < 3; i++ {
			go func() {
				body, _ := json.Marshal(Request{Workload: "433.milc", Controller: "none", Accesses: 1000})
				resp, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			status, retryAfter, reason := getReadyz(t, s.Addr())
			if status == http.StatusServiceUnavailable {
				if reason != ReadyReasonOverloaded {
					t.Fatalf("saturated readyz reason = %q, want %q", reason, ReadyReasonOverloaded)
				}
				if retryAfter == "" {
					t.Fatal("overloaded 503 missing Retry-After")
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("readyz never reported overloaded under saturation")
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestReturnWindows: a request with ReturnWindows gets the run's
// committed window stream in the response — byte-identical to the
// windows the service's own collector merged for that run — and a
// request without it gets none.
func TestReturnWindows(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	status, plain := post(t, s, Request{Workload: "433.milc", Controller: "bo", Accesses: 3000})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, plain.Error)
	}
	if len(plain.Windows) != 0 {
		t.Fatalf("response without ReturnWindows carried %d windows", len(plain.Windows))
	}
	status, out := post(t, s, Request{Workload: "433.milc", Controller: "bo", Accesses: 3000, ReturnWindows: true})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, out.Error)
	}
	if len(out.Windows) == 0 {
		t.Fatal("ReturnWindows response carried no windows")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The second run's committed windows are the collector's tail.
	all := tel.Windows()
	if len(all) != 2*len(out.Windows) {
		t.Fatalf("collector windows %d, want %d (two identical runs)", len(all), 2*len(out.Windows))
	}
	got, _ := json.Marshal(out.Windows)
	want, _ := json.Marshal(all[len(all)-len(out.Windows):])
	if !bytes.Equal(got, want) {
		t.Fatal("shipped windows diverge from the committed stream")
	}
}

// TestAbortSeversHTTP: Abort refuses new connections immediately (the
// SIGKILL stand-in for the cluster chaos harness) while Close still
// reaps the engine cleanly afterwards.
func TestAbortSeversHTTP(t *testing.T) {
	s := startService(t, nil)
	if got := getStatus(t, s, "/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before abort = %d", got)
	}
	s.Abort()
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("aborted service still answering HTTP")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after abort: %v", err)
	}
	if s.State() != Stopped {
		t.Fatalf("state = %v, want stopped", s.State())
	}
}

// TestServiceRejectsAfterDrainStarts: a request racing the drain gets
// a clean 503, never a hang.
func TestServiceRejectsAfterDrainStarts(t *testing.T) {
	s := startService(t, nil)
	resp, err := http.Post("http://"+s.Addr()+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain = %d, want 202", resp.StatusCode)
	}
	<-s.Drained()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after drained: %v", err)
	}
	// Admission after the drain is a clean rejection, not a hang.
	if _, err := s.admit(context.Background(), Request{Workload: "433.milc", Controller: "bo"}, telemetry.SpanRef{}); err == nil {
		t.Fatal("admit after drain succeeded")
	}
	if got := s.Stats().Rejected; got == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

// TestServiceNoGoroutineLeak: a start/serve/drain cycle returns the
// process to its baseline goroutine count.
func TestServiceNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := startService(t, nil)
	if status, _ := post(t, s, Request{Workload: "433.milc", Controller: "none", Accesses: 2000}); status != http.StatusOK {
		t.Fatalf("request: status %d", status)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// http client keep-alives and runtime bookkeeping settle
		// asynchronously; poll with a small allowance.
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after drain\n%s",
				runtime.NumGoroutine(), before, truncateStack(string(buf[:n])))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func truncateStack(s string) string {
	if parts := strings.SplitAfter(s, "\n\n"); len(parts) > 12 {
		return strings.Join(parts[:12], "") + "... (truncated)"
	}
	return s
}
