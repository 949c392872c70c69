// Package urlid interns URLs into dense int32 IDs, so that state kept
// per URL can live in flat slices indexed by ID instead of maps keyed by
// the URL string.
//
// A crawl keeps one Table, and it is the paper's AllUrls: every URL the
// crawl has discovered. Two users share it: the page graph
// (webgraph.Graph), which holds the links AllUrls was given, and the
// crawl engine (core.Crawler), whose page states, ranking scores and
// revisit plan are indexed by the same IDs. Each user keeps its per-ID
// slices behind its own lock and grows them to the table's length when
// it meets an ID past their end, whoever minted it. Standalone graphs
// get a table of their own.
//
// Concurrency: Intern and Lookup take the table's mutex, a leaf lock
// that is never held while calling out, so a caller may hold its own
// lock around them. URL and Len take no lock: a URL read of an ID the
// caller already holds is a plain load, which keeps the sort comparators
// and link checks that read URLs by the thousand off the mutex.
package urlid

import (
	"sync"
	"sync/atomic"
)

// URLs live in fixed-size chunks that never move: a grown table adds a
// chunk and publishes a longer directory of chunk pointers, so a reader
// holding an older directory still finds every ID it could know of.
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
)

type chunk [chunkSize]string

// Table maps every URL it is given to a dense ID — 0, 1, 2, … in order
// of first arrival — and back. It is append-only: an ID names its URL
// for the table's life and is never reused, so per-ID slices only grow.
// The zero Table is empty and ready for use; a Table must not be copied
// once used. It is safe for concurrent use (see the package notes).
type Table struct {
	mu  sync.Mutex
	ids map[string]int32
	// dir is the published chunk directory and n the number of IDs
	// handed out; both are stored after the URLs they cover.
	dir atomic.Pointer[[]*chunk]
	n   atomic.Int32
}

// Intern returns url's ID, giving it the next one if the table has not
// seen it, and reports whether it did.
func (t *Table) Intern(url string) (id int32, isNew bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[url]; ok {
		return id, false
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id = t.n.Load()
	var dir []*chunk
	if p := t.dir.Load(); p != nil {
		dir = *p
	}
	if c := int(id >> chunkBits); c == len(dir) {
		grown := append(dir[:len(dir):len(dir)], new(chunk))
		t.dir.Store(&grown)
		dir = grown
	}
	dir[id>>chunkBits][id&(chunkSize-1)] = url
	t.ids[url] = id
	t.n.Store(id + 1)
	return id, true
}

// Lookup returns url's ID if the table has one.
func (t *Table) Lookup(url string) (int32, bool) {
	t.mu.Lock()
	id, ok := t.ids[url]
	t.mu.Unlock()
	return id, ok
}

// URL returns the URL with the given ID, which must have been handed
// out. It takes no lock.
func (t *Table) URL(id int32) string {
	return (*t.dir.Load())[id>>chunkBits][id&(chunkSize-1)]
}

// Len returns the number of IDs handed out: every ID below it names a
// URL that URL may read. It takes no lock.
func (t *Table) Len() int { return int(t.n.Load()) }
