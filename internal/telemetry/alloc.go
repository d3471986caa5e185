package telemetry

import (
	"runtime/metrics"
	"sort"
)

// Per-phase allocation attribution: when Config.AllocAttribution is
// set, the collector samples the process allocation counters
// (runtime/metrics, exact and STW-free) around every span and at every
// window boundary, and charges the deltas to the span's name — the
// "phase" (sim.run, sim.simulate, window.commit, request, ...). The
// aggregates answer the question the bench tracker cannot: *which
// phase* owns the allocations a run performs.
//
// The sampled values are process-global, so concurrent phases
// double-count each other's allocations and absolute byte/object
// numbers are not deterministic. Phase *names* and *counts* are — they
// follow the span tree, which is a pure function of the workload — so
// determinism tests compare exactly those fields and the attribution
// is off by default everywhere output is byte-compared.

// allocMetricNames are the runtime/metrics counters sampled by
// readAllocTick, in tick field order.
var allocMetricNames = [2]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// allocTick is one sample of the cumulative process allocation
// counters.
type allocTick struct {
	bytes   uint64
	objects uint64
}

// readAllocTick samples the cumulative allocation counters. The sample
// buffer is stack-allocated, so concurrent readers do not contend.
func readAllocTick() allocTick {
	var s [2]metrics.Sample
	s[0].Name = allocMetricNames[0]
	s[1].Name = allocMetricNames[1]
	metrics.Read(s[:])
	var t allocTick
	if s[0].Value.Kind() == metrics.KindUint64 {
		t.bytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		t.objects = s[1].Value.Uint64()
	}
	return t
}

// PhaseAlloc is the accumulated allocation attribution of one phase
// (one span name): how many times the phase ran and how many heap
// bytes/objects the process allocated while it was open.
type PhaseAlloc struct {
	Phase        string `json:"phase"`
	Count        uint64 `json:"count"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
}

// recordPhaseAlloc charges one finished phase interval.
func (c *Collector) recordPhaseAlloc(name string, bytes, objects uint64) {
	c.obsMu.Lock()
	pa := c.phaseAllocs[name]
	if pa == nil {
		pa = &PhaseAlloc{Phase: name}
		c.phaseAllocs[name] = pa
	}
	pa.Count++
	pa.AllocBytes += bytes
	pa.AllocObjects += objects
	c.obsMu.Unlock()
}

// mergePhaseAlloc folds one phase aggregate in (used by Merge).
func (c *Collector) mergePhaseAlloc(in PhaseAlloc) {
	c.obsMu.Lock()
	pa := c.phaseAllocs[in.Phase]
	if pa == nil {
		pa = &PhaseAlloc{Phase: in.Phase}
		c.phaseAllocs[in.Phase] = pa
	}
	pa.Count += in.Count
	pa.AllocBytes += in.AllocBytes
	pa.AllocObjects += in.AllocObjects
	c.obsMu.Unlock()
}

// PhaseAllocs returns the per-phase allocation aggregates sorted by
// phase name (nil for a nil or attribution-disabled collector).
func (c *Collector) PhaseAllocs() []PhaseAlloc {
	if c == nil {
		return nil
	}
	c.obsMu.Lock()
	out := make([]PhaseAlloc, 0, len(c.phaseAllocs))
	for _, pa := range c.phaseAllocs {
		out = append(out, *pa)
	}
	c.obsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	if len(out) == 0 {
		return nil
	}
	return out
}

// AllocPhase is a lightweight phase handle for code that wants
// allocation attribution without opening a span (e.g. per-checkpoint
// saves inside the simulate loop, where a span per save would bloat
// the span stream but an aggregate is welcome). The zero value is a
// valid disabled handle; the type is a value, so starting and ending a
// phase allocates nothing itself.
type AllocPhase struct {
	c     *Collector
	name  string
	start allocTick
}

// StartAllocPhase opens an attribution-only phase. On a nil collector
// or with attribution disabled it returns the zero (disabled) handle —
// the cost is the same nil check every other disabled telemetry hook
// pays.
func (c *Collector) StartAllocPhase(name string) AllocPhase {
	if c == nil || !c.allocOn {
		return AllocPhase{}
	}
	return AllocPhase{c: c, name: name, start: readAllocTick()}
}

// End closes the phase and charges the allocation delta. The nil guard
// inlines; the runtime read is outlined in end.
func (p AllocPhase) End() {
	if p.c != nil {
		p.end()
	}
}

func (p AllocPhase) end() {
	now := readAllocTick()
	p.c.recordPhaseAlloc(p.name, now.bytes-p.start.bytes, now.objects-p.start.objects)
}
