package telemetry

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRingBounds(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Process: "p", EventCap: 4, IncidentCap: 2, MinInterval: time.Hour}, nil, nil)
	for i := 0; i < 10; i++ {
		r.Note("k", fmt.Sprintf("e%d", i))
	}
	snap := r.Snapshot()
	if len(snap.Events) != 4 {
		t.Fatalf("ring kept %d events, cap is 4", len(snap.Events))
	}
	for i, e := range snap.Events {
		if want := fmt.Sprintf("e%d", 6+i); e.Detail != want {
			t.Fatalf("event %d = %q, want %q (oldest-first after eviction)", i, e.Detail, want)
		}
	}
	if snap.Process != "p" {
		t.Fatalf("snapshot process %q", snap.Process)
	}

	for i := 0; i < 5; i++ {
		r.Capture("manual", fmt.Sprintf("c%d", i))
	}
	incs := r.Incidents()
	if len(incs) != 2 {
		t.Fatalf("retained %d incidents, cap is 2", len(incs))
	}
	if incs[0].Detail != "c3" || incs[1].Detail != "c4" {
		t.Fatalf("retained wrong incidents: %q, %q", incs[0].Detail, incs[1].Detail)
	}
	if incs[0].Seq != 4 || incs[1].Seq != 5 {
		t.Fatalf("incident seqs %d,%d want 4,5", incs[0].Seq, incs[1].Seq)
	}
}

func TestFlightRecorderTriggerRateLimit(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{MinInterval: time.Hour}, nil, nil)
	if inc := r.Trigger("breaker.trip", "bo"); inc == nil {
		t.Fatal("first trigger suppressed")
	}
	if inc := r.Trigger("breaker.trip", "bo"); inc != nil {
		t.Fatal("second trigger within MinInterval not suppressed")
	}
	if got := r.Suppressed(); got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}
	// Suppressed triggers still leave breadcrumbs, and manual capture
	// bypasses the limit.
	if n := len(r.Snapshot().Events); n != 2 {
		t.Fatalf("ring has %d events, want 2 (one per trigger)", n)
	}
	inc := r.Capture("manual", "")
	if inc.Trigger != "manual" || len(r.Incidents()) != 2 {
		t.Fatal("manual capture did not bypass the rate limit")
	}
}

func TestFlightRecorderSnapshotCarriesSpansAndHistory(t *testing.T) {
	col, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hist := NewHistory(8)
	reg := NewRegistry()
	reg.Counter("x").Add(3)
	hist.Record(time.Now(), reg.Snapshot())
	r := NewFlightRecorder(RecorderConfig{}, col, hist)
	r.SetProcess("svc 1.2.3.4:5")
	col.StartSpan("t", "op").End()

	inc := r.Trigger("failover", "b → c")
	if inc == nil {
		t.Fatal("trigger suppressed")
	}
	if inc.Profile != nil {
		t.Fatalf("incident carries a profile without a ProfileDir: %+v", inc.Profile)
	}
	if inc.Process != "svc 1.2.3.4:5" {
		t.Fatalf("incident process %q", inc.Process)
	}
	if len(inc.Spans) != 1 || inc.Spans[0].Name != "op" {
		t.Fatalf("incident spans %+v, want the collector's ring", inc.Spans)
	}
	if len(inc.History) != 1 || inc.History[0].Counters["x"] != 3 {
		t.Fatalf("incident history %+v, want the sampled registry", inc.History)
	}
	if len(inc.Events) != 1 || inc.Events[0].Kind != "failover" {
		t.Fatalf("incident events %+v", inc.Events)
	}
}

// TestFlightRecorderConcurrent hammers every method from parallel
// goroutines; run under -race (check.sh race-enables this test) it
// proves the ring is safe to share between request handlers, trigger
// sites and HTTP scrapes.
func TestFlightRecorderConcurrent(t *testing.T) {
	col, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := NewFlightRecorder(RecorderConfig{EventCap: 64, IncidentCap: 4, MinInterval: time.Nanosecond, ProfileDir: dir}, col, NewHistory(16))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					r.Note("n", "x")
				case 1:
					r.Trigger("t", "y")
				case 2:
					r.Snapshot()
				case 3:
					r.Incidents()
				default:
					if i%50 == 4 {
						r.CaptureProfiled("manual", "p", 0)
					} else {
						r.Capture("manual", "z")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if len(r.Incidents()) == 0 {
		t.Fatal("no incidents retained after concurrent captures")
	}

	// Quiesced, one more profiled capture prunes every evicted
	// directory: what is on disk is exactly the retained evidence, and
	// the ring is in seq order.
	r.CaptureProfiled("manual", "last", 0)
	want := map[string]bool{}
	incs := r.Incidents()
	for i, inc := range incs {
		if i > 0 && inc.Seq <= incs[i-1].Seq {
			t.Fatalf("incidents out of seq order: %d after %d", inc.Seq, incs[i-1].Seq)
		}
		if inc.Profile != nil {
			want[inc.Profile.Dir] = true
		}
	}
	got, err := filepath.Glob(filepath.Join(dir, "incident-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("profile dirs on disk %v, want the retained %v", got, want)
	}
	for _, d := range got {
		if !want[d] {
			t.Fatalf("profile dir %s on disk but its incident was evicted", d)
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Note("k", "d")
	r.SetProcess("p")
	if r.Trigger("t", "") != nil {
		t.Fatal("nil recorder captured")
	}
	if inc := r.Capture("t", ""); inc.Seq != 0 {
		t.Fatal("nil recorder capture not zero")
	}
	if r.Incidents() != nil || r.Suppressed() != 0 {
		t.Fatal("nil recorder state not empty")
	}
	if snap := r.Snapshot(); snap.Process != "" || snap.Events != nil {
		t.Fatal("nil recorder snapshot not zero")
	}
}
