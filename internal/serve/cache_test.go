package serve

import (
	"testing"

	"webevolve/internal/obs"
	"webevolve/internal/store"
)

// TestCacheGenerations is the cache's generation contract as a table: a
// newer generation flushes once and takes the cache over, the current
// one hits, an older one bypasses — reads miss, inserts are dropped,
// nothing is flushed and the stamp does not move back.
func TestCacheGenerations(t *testing.T) {
	m := newServeMetrics(obs.NewRegistry())
	c := newPageCache(8, 0, m)
	recOf := func(gen uint64) store.PageRecord {
		return store.PageRecord{URL: "u", Checksum: gen, Content: []byte{byte(gen)}}
	}
	for i, step := range []struct {
		op      string // "put" or "get"
		gen     uint64
		hit     bool   // get: expected outcome
		holds   uint64 // generation whose record the cache must hold afterwards (0: empty)
		flushes int64  // cumulative invalidations afterwards
	}{
		{op: "get", gen: 0, hit: false, holds: 0, flushes: 0},
		{op: "put", gen: 1, holds: 1, flushes: 0}, // newer, but nothing resident: no flush counted
		{op: "get", gen: 1, hit: true, holds: 1, flushes: 0},
		{op: "get", gen: 3, hit: false, holds: 0, flushes: 1}, // newer: flushes once
		{op: "get", gen: 3, hit: false, holds: 0, flushes: 1},
		{op: "put", gen: 3, holds: 3, flushes: 1},
		{op: "get", gen: 2, hit: false, holds: 3, flushes: 1}, // older: a miss, and generation 3's entry stays
		{op: "put", gen: 2, holds: 3, flushes: 1},             // older: not inserted
		{op: "put", gen: 1, holds: 3, flushes: 1},
		{op: "get", gen: 3, hit: true, holds: 3, flushes: 1}, // equal: hits what the stragglers left alone
		{op: "put", gen: 4, holds: 4, flushes: 2},
		{op: "get", gen: 3, hit: false, holds: 4, flushes: 2},
		{op: "get", gen: 4, hit: true, holds: 4, flushes: 2},
	} {
		switch step.op {
		case "put":
			c.put(step.gen, "u", recOf(step.gen))
		case "get":
			rec, ok := c.get(step.gen, "u")
			if ok != step.hit || (ok && rec.Checksum != step.gen) {
				t.Fatalf("step %d: get(gen %d) = %+v, %v; want hit=%v of its own generation", i, step.gen, rec, ok, step.hit)
			}
		}
		var holds uint64
		if el := c.entries["u"]; el != nil {
			holds = el.Value.(*cacheEntry).rec.Checksum
		}
		if holds != step.holds || m.cacheInvalidations.Value() != step.flushes {
			t.Fatalf("step %d (%s gen %d): cache holds generation %d's record after %d flushes, want %d after %d",
				i, step.op, step.gen, holds, m.cacheInvalidations.Value(), step.holds, step.flushes)
		}
	}
}
