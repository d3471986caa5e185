package main

import (
	"math"
	"sort"
	"time"
)

// This file holds the benchmark's metric arithmetic. It is kept free of
// I/O so stats_test.go can pin every rule the README states.

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// tailPercentile returns the highest whole percentile that leaves at
// least minBeyond of n samples strictly above its nearest-rank position,
// floored at the median. A workload fixes n, so the percentile it
// reports under latency_tail_ms does not drift between runs.
func tailPercentile(n, minBeyond int) float64 {
	if n <= 0 || minBeyond <= 0 {
		return 50
	}
	// p/100 <= 1 - minBeyond/n, in integers: p = 100 - ceil(100*minBeyond/n).
	p := 100 - (100*minBeyond+n-1)/n
	return float64(max(50, min(p, 99)))
}

// beyond counts the samples of n that sit above the nearest-rank p-th
// percentile position.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// median is the 50th percentile by linear interpolation (the mean of the
// middle pair for an even count), used where a run summarizes repeated
// measurements of one quantity such as set-up time.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a closed-open span of time on one timeline, in any unit.
type interval struct{ start, end float64 }

func (iv interval) dur() float64 { return iv.end - iv.start }

// covered returns the length of the union of ivs clipped to [lo, hi):
// overlapping children are counted once, and the parts of a child that
// stick out of its parent are not counted at all.
func covered(lo, hi float64, ivs []interval) float64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := math.Max(iv.start, lo), math.Min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	if len(clipped) == 0 {
		return 0
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	total, cur := 0.0, clipped[0]
	for _, iv := range clipped[1:] {
		if iv.start > cur.end {
			total += cur.dur()
			cur = iv
			continue
		}
		cur.end = math.Max(cur.end, iv.end)
	}
	return total + cur.dur()
}

// selfTime is a span's duration minus the part of it that its child
// spans cover.
func selfTime(parent interval, children []interval) float64 {
	return parent.dur() - covered(parent.start, parent.end, children)
}

// goodput is the number of latencies at or under limit per second of
// wall time. Callers pass only successful requests' latencies: a failed
// request misses every limit.
func goodput(latencies []float64, limit float64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	n := 0
	for _, l := range latencies {
		if l <= limit {
			n++
		}
	}
	return float64(n) / wall.Seconds()
}

// sendTimes is one request's schedule in a load run, as offsets from the
// start of the run: when it was due, when the generator sent it, and
// when its response arrived.
type sendTimes struct{ due, sent, done time.Duration }

// latency is the request's latency as its user sees it: from the time it
// was due, so a stalled generator charges its backlog to the requests
// that waited, not only to the request that stalled.
func (t sendTimes) latency() time.Duration { return t.done - t.due }

// lag is how late the generator sent the request.
func (t sendTimes) lag() time.Duration { return t.sent - t.due }

// backlogMax is the largest number of requests that were due but not yet
// sent at any instant of the run.
func backlogMax(ts []sendTimes) int {
	type event struct {
		at    time.Duration
		delta int
	}
	var ev []event
	for _, t := range ts {
		if t.sent > t.due {
			ev = append(ev, event{t.due, +1}, event{t.sent, -1})
		}
	}
	// At equal instants a send leaves the backlog before an arrival joins.
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].at != ev[j].at {
			return ev[i].at < ev[j].at
		}
		return ev[i].delta < ev[j].delta
	})
	cur, peak := 0, 0
	for _, e := range ev {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
