package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // exactly 10 beyond p99
		{999, 98},  // p99 would leave 9
		{1152, 99}, // 11 beyond
		{580, 98},
		{55, 81},
		{20, 50}, // the floor: p50 leaves exactly 10
		{10, 50}, // too few for any tail: the floor
		{100000, 99},
	} {
		got := tailPercentile(c.n, 10)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if c.n >= 20 && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond, want >= 10", c.n, got, beyond(c.n, got))
		}
		if got < 99 && c.n >= 20 && beyond(c.n, got+1) >= 10 {
			t.Errorf("n=%d: p%g is not the highest; p%g also leaves %d", c.n, got, got+1, beyond(c.n, got+1))
		}
	}
}

func TestTailPercentileSampleCountOnData(t *testing.T) {
	// With 1000 latencies 1..1000 ms, the tail is p99 = 990 ms and
	// exactly ten samples (991..1000) lie beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p := tailPercentile(len(xs), 10)
	v := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	if p != 99 || v != 990 || n != 10 {
		t.Fatalf("tail p%g = %g with %d beyond, want p99 = 990 with 10 beyond", p, v, n)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping counted once", []interval{{10, 40}, {30, 50}}, 60},
		{"nested counted once", []interval{{10, 60}, {20, 30}}, 50},
		{"sticking out clipped", []interval{{-20, 10}, {90, 130}}, 80},
		{"outside ignored", []interval{{120, 150}}, 100},
		{"touching", []interval{{0, 50}, {50, 100}}, 0},
		{"unsorted", []interval{{70, 80}, {10, 20}, {15, 25}}, 75},
	} {
		if got := selfTime(parent, c.children); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: self = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestGoodputCountsOnlyWithinLimit(t *testing.T) {
	lat := []float64{10, 20, 99.9, 100, 100.1, 500}
	if got := goodput(lat, 100, 2*time.Second); got != 2 {
		t.Errorf("goodput = %g/s, want 2/s (4 within 100 ms over 2 s)", got)
	}
	if got := goodput(lat, 1000, time.Second); got != 6 {
		t.Errorf("goodput with a loose limit = %g/s, want 6/s", got)
	}
	if got := goodput(lat, 100, 0); got != 0 {
		t.Errorf("goodput over no time = %g, want 0", got)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	// A request due at 100 ms that the generator could only send at
	// 150 ms and that answered at 170 ms waited 70 ms, of which 50 ms
	// were the generator's lag.
	st := sendTimes{due: 100 * time.Millisecond, sent: 150 * time.Millisecond, done: 170 * time.Millisecond}
	if got := st.latency(); got != 70*time.Millisecond {
		t.Errorf("latency = %v, want 70ms (timed from due, not from send)", got)
	}
	if got := st.lag(); got != 50*time.Millisecond {
		t.Errorf("lag = %v, want 50ms", got)
	}
}

func TestBacklogMax(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	ts := []sendTimes{
		{due: ms(0), sent: ms(0)},   // on time: never in the backlog
		{due: ms(10), sent: ms(40)}, // waits 10..40
		{due: ms(20), sent: ms(50)}, // waits 20..50
		{due: ms(30), sent: ms(35)}, // waits 30..35
		{due: ms(40), sent: ms(60)}, // joins as the 10 ms one leaves
	}
	if got := backlogMax(ts); got != 3 {
		t.Errorf("backlogMax = %d, want 3", got)
	}
	if got := backlogMax(nil); got != 0 {
		t.Errorf("backlogMax of nothing = %d, want 0", got)
	}
}

func TestArrivalScheduleIsSeededAndFillsTheRun(t *testing.T) {
	a := arrivalSchedule(500, 10*time.Second, 7)
	b := arrivalSchedule(500, 10*time.Second, 7)
	c := arrivalSchedule(500, 10*time.Second, 8)
	if len(a) != 500 {
		t.Fatalf("len = %d, want 500", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different schedules at %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	if a[0] < 0 || a[len(a)-1] >= 10*time.Second {
		t.Errorf("schedule [%v, %v] leaves [0, 10s)", a[0], a[len(a)-1])
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestServeMixLengthsAreTheSameForEverySeed(t *testing.T) {
	lengths := func(seed int64) map[int]int {
		w, err := lookupWorkload("serve-mix")
		if err != nil {
			t.Fatal(err)
		}
		n := map[int]int{}
		for _, req := range w.pool(seed) {
			n[req.Accesses]++
		}
		return n
	}
	a, b := lengths(1), lengths(2)
	if len(a) != len(serveMixTraces)*serveMixSeeds {
		t.Fatalf("%d distinct lengths, want one per trace and seed (%d)", len(a), len(serveMixTraces)*serveMixSeeds)
	}
	sum, count := 0, 0
	for l, k := range a {
		if b[l] != k {
			t.Errorf("length %d: %d requests with seed 1, %d with seed 2", l, k, b[l])
		}
		if l < serveMixAccesses*4/5 || l > serveMixAccesses*6/5 {
			t.Errorf("length %d outside ±20%% of %d", l, serveMixAccesses)
		}
		sum += l * k
		count += k
	}
	if mean := float64(sum) / float64(count); math.Abs(mean-serveMixAccesses) > 1 {
		t.Errorf("mean length %g, want %d", mean, serveMixAccesses)
	}
}
