package serve

import (
	"container/list"
	"sync"

	"webevolve/internal/store"
)

// pageCache is the serving plane's bounded hot-set cache: an LRU keyed
// by URL, bounded both by entry count and by resident bytes (page
// bodies dominate), and stamped with the source generation it was
// filled under. A lookup presenting a newer generation — the shadow
// swap just published a fresh collection — flushes the whole cache
// before proceeding, and one presenting an older generation bypasses
// it, so no reader is ever served a record from another generation
// than its own and a swap costs exactly one flush.
//
// Misses are not cached: a negative entry would pin "absent" across
// writes on backends that never swap (in-place crawls), and the
// absent-page path is already a single index probe.
type pageCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64

	gen     uint64
	bytes   int64
	entries map[string]*list.Element
	ll      *list.List // front = most recently used

	// Counters live on the owning Server's registry; residency gauges
	// (entries, bytes) are GaugeFuncs reading the fields above.
	m *serveMetrics
}

// cacheEntry is one resident record.
type cacheEntry struct {
	url  string
	rec  store.PageRecord
	size int64
}

// newPageCache builds a cache; non-positive bounds fall back to the
// defaults (4096 entries, 64 MiB).
func newPageCache(maxEntries int, maxBytes int64, m *serveMetrics) *pageCache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &pageCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[string]*list.Element),
		ll:         list.New(),
		m:          m,
	}
}

// recordSize approximates a record's resident footprint.
func recordSize(rec store.PageRecord) int64 {
	n := 96 + len(rec.URL) + len(rec.Content)
	for _, l := range rec.Links {
		n += 16 + len(l)
	}
	return int64(n)
}

// syncGenLocked reports whether a request of generation gen may use
// the cache, flushing it first when gen is newer than what it holds. An
// older generation — a straggler that resolved its reader before a swap
// and got here after the new generation's first request — may not: it
// reads as a miss and inserts nothing, so it can neither be served nor
// file a retired record, and it does not flush its successors' entries.
func (c *pageCache) syncGenLocked(gen uint64) bool {
	if gen > c.gen {
		c.gen = gen
		if c.ll.Len() > 0 {
			c.m.cacheInvalidations.Inc()
			c.entries = make(map[string]*list.Element)
			c.ll.Init()
			c.bytes = 0
		}
	}
	return gen == c.gen
}

// get returns the cached record for url under the given generation.
func (c *pageCache) get(gen uint64, url string) (store.PageRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var el *list.Element
	if c.syncGenLocked(gen) {
		el = c.entries[url]
	}
	if el == nil {
		c.m.cacheMisses.Inc()
		return store.PageRecord{}, false
	}
	c.m.cacheHits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).rec, true
}

// put inserts a record under the given generation, evicting from the
// cold end until both bounds hold. A record bigger than a quarter of
// the byte budget is not cached at all: one megapage must not evict the
// whole hot set.
func (c *pageCache) put(gen uint64, url string, rec store.PageRecord) {
	size := recordSize(rec)
	if size > c.maxBytes/4 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.syncGenLocked(gen) {
		return
	}
	if el, ok := c.entries[url]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += size - ent.size
		ent.rec, ent.size = rec, size
		c.ll.MoveToFront(el)
	} else {
		c.entries[url] = c.ll.PushFront(&cacheEntry{url: url, rec: rec, size: size})
		c.bytes += size
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.entries, ent.url)
		c.bytes -= ent.size
		c.m.cacheEvictions.Inc()
	}
}

// CacheStats is a point-in-time snapshot of the hot-set cache, reported
// by /v1/stats.
type CacheStats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxEntries    int   `json:"maxEntries"`
	MaxBytes      int64 `json:"maxBytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// stats snapshots the counters.
func (c *pageCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
		MaxEntries:    c.maxEntries,
		MaxBytes:      c.maxBytes,
		Hits:          c.m.cacheHits.Value(),
		Misses:        c.m.cacheMisses.Value(),
		Evictions:     c.m.cacheEvictions.Value(),
		Invalidations: c.m.cacheInvalidations.Value(),
	}
}

// residentEntries and residentBytes back the cache residency
// GaugeFuncs, sampled at scrape time.
func (c *pageCache) residentEntries() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.ll.Len())
}

func (c *pageCache) residentBytes() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.bytes)
}
