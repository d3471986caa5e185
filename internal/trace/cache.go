package trace

import (
	"container/list"
	"sync"
)

// recordBytes approximates the in-memory footprint of one Record
// (ID, PC, Addr uint64 + Gap uint32, padded).
const recordBytes = 32

// DefaultCacheBytes bounds the default process-wide cache: ~256 MiB
// holds every trace of a full evaluation sweep (a 60k-access trace is
// ~2 MiB) with an order of magnitude to spare for oversized -n runs.
const DefaultCacheBytes = 256 << 20

// cacheKey identifies one generated trace. The workload name uniquely
// identifies the generator (workloads are registered once), so
// (name, n, seed) pins the exact byte content of the trace.
type cacheKey struct {
	name string
	n    int
	seed int64
}

// cacheEntry is one cache slot. ready is closed when the trace has
// been generated; latecomers block on it instead of regenerating
// (singleflight).
type cacheEntry struct {
	ready chan struct{}
	tr    *Trace
	bytes int64
	elem  *list.Element // position in the LRU list; nil once evicted
}

// Cache is a concurrency-safe, memory-bounded trace cache. Each
// (workload, accesses, seed) trace is generated exactly once per
// process — concurrent requests for the same key block on the single
// in-flight generation — and shared read-only afterwards. When the
// approximate footprint of completed traces exceeds the byte bound,
// the least-recently-used entries are evicted (in-flight generations
// are never evicted, so a Get never observes a half-built trace).
//
// Traces returned by Get must be treated as immutable: the simulator
// and all prefetch sources only read Records, which is what makes the
// sharing safe. There is deliberately no disk tier: generating a
// trace costs about as much as reading it back from disk.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	entries  map[cacheKey]*cacheEntry
	lru      *list.List // front = most recently used; values are cacheKey

	hits, misses, evictions int64
}

// NewCache builds a cache bounded to approximately maxBytes of trace
// data; maxBytes <= 0 selects DefaultCacheBytes.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		entries:  make(map[cacheKey]*cacheEntry),
		lru:      list.New(),
	}
}

// defaultCache is the process-wide cache used by Shared.
var (
	defaultCache     *Cache
	defaultCacheOnce sync.Once
)

// Shared returns the process-wide trace cache, so independent
// experiments (and their parallel workers) generate each workload
// trace once.
func Shared() *Cache {
	defaultCacheOnce.Do(func() { defaultCache = NewCache(0) })
	return defaultCache
}

// Get returns the workload's trace for n accesses at the given seed,
// generating it on the first request and serving every later (or
// concurrent) request from memory.
func (c *Cache) Get(w Workload, n int, seed int64) *Trace {
	key := cacheKey{name: w.Name, n: n, seed: seed}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		return e.tr
	}
	c.misses++
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	// Generate outside the lock: other keys proceed in parallel, and
	// same-key callers block on e.ready above.
	tr := w.GenerateSeeded(n, seed)

	c.mu.Lock()
	e.tr = tr
	e.bytes = int64(len(tr.Records)) * recordBytes
	e.elem = c.lru.PushFront(key)
	c.curBytes += e.bytes
	c.evict()
	c.mu.Unlock()
	close(e.ready)
	return tr
}

// evict drops least-recently-used completed entries until the cache
// fits its bound again. Called with c.mu held. The most recent entry
// is always kept, so a single trace larger than the bound still
// caches (and is simply replaced by its successor).
func (c *Cache) evict() {
	for c.curBytes > c.maxBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		key := back.Value.(cacheKey)
		e := c.entries[key]
		c.lru.Remove(back)
		delete(c.entries, key)
		c.curBytes -= e.bytes
		e.elem = nil
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes                   int64
}

// Stats returns current counters and occupancy.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.lru.Len(), Bytes: c.curBytes,
	}
}
