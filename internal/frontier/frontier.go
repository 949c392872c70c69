// Package frontier implements the two URL data structures of the paper's
// incremental-crawler architecture (Figure 12):
//
//   - AllUrls: the set of every URL the crawler has ever discovered, with
//     the metadata the RankingModule scans (estimated importance, where
//     the URL was seen, whether it is in the collection).
//
//   - CollUrls: the set of URLs that are (or will be) in the Collection,
//     implemented as a priority queue "where the URLs to be crawled early
//     are placed in the front". The UpdateModule pops the head, crawls
//     it, and pushes it back with its next scheduled visit time; the
//     RankingModule pushes brand-new URLs at the very front so they are
//     crawled immediately. Sharded is that queue, partitioned by site.
package frontier

import (
	"slices"
	"strings"
	"sync"

	"webevolve/internal/urlid"
)

// URLInfo is the AllUrls record for one discovered URL.
type URLInfo struct {
	URL string
	// FirstSeen is the discovery time (days).
	FirstSeen float64
	// InLinks counts distinct discovered pages linking here; a cheap
	// importance proxy refreshed by the ranking module.
	InLinks int
	// Importance is the most recent importance score assigned by the
	// RankingModule (PageRank in the paper's example).
	Importance float64
	// InCollection reports whether the URL is currently in the revisit
	// queue.
	InCollection bool
}

// AllUrls records every URL discovered, with metadata. Safe for
// concurrent use: CrawlModules add URLs while the RankingModule scans.
//
// Inside, a URL is a dense ID from a urlid.Table of its own, guarded by
// its lock; records and link lists are slices indexed by that ID.
// Nothing is ever forgotten, so neither is an ID.
type AllUrls struct {
	mu  sync.RWMutex
	ids urlid.Table
	// recs[id] is the record of the URL with that ID where known[id]; a
	// URL seen only as a link's source has an ID but no record.
	recs  []URLInfo
	known []bool
	n     int // records
	// reported[id] lists, each once, every target the URL with that ID
	// has reported a link to, so that a (from, to) pair counts toward
	// InLinks once however often the link leaves the page and returns.
	reported [][]int32
}

// NewAllUrls returns an empty URL table.
func NewAllUrls() *AllUrls { return &AllUrls{} }

// intern returns url's ID, growing the per-ID slices for a new one.
func (a *AllUrls) intern(url string) int32 {
	id, isNew := a.ids.Intern(url)
	if isNew {
		a.recs = append(a.recs, URLInfo{})
		a.known = append(a.known, false)
		a.reported = append(a.reported, nil)
	}
	return id
}

// add returns url's ID, first giving it a record discovered at now if
// it has none, and reports whether it did.
func (a *AllUrls) add(url string, now float64) (int32, bool) {
	id := a.intern(url)
	if a.known[id] {
		return id, false
	}
	a.known[id] = true
	a.recs[id] = URLInfo{URL: url, FirstSeen: now}
	a.n++
	return id, true
}

// Add records a URL discovered at time now. It returns true when the URL
// is new.
func (a *AllUrls) Add(url string, now float64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, isNew := a.add(url, now)
	return isNew
}

// AddLink records that page from links to page to, discovered at time
// now. The target is added if new, and its in-link count incremented the
// first time this (from, to) pair is seen.
func (a *AllUrls) AddLink(from, to string, now float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, _ := a.add(to, now)
	f := a.intern(from)
	if !slices.Contains(a.reported[f], t) {
		a.reported[f] = append(a.reported[f], t)
		a.recs[t].InLinks++
	}
}

// record returns url's ID if url has a record.
func (a *AllUrls) record(url string) (int32, bool) {
	id, ok := a.ids.Lookup(url)
	return id, ok && a.known[id]
}

// Get returns a copy of the record for url.
func (a *AllUrls) Get(url string) (URLInfo, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	id, ok := a.record(url)
	if !ok {
		return URLInfo{}, false
	}
	return a.recs[id], true
}

// Len returns the number of discovered URLs.
func (a *AllUrls) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.n
}

// SetImportance stores an importance score for url, creating the record
// if needed (the ranking module can score URLs it has only seen links
// to — footnote 2 of the paper).
func (a *AllUrls) SetImportance(url string, imp float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	id, _ := a.add(url, 0)
	a.recs[id].Importance = imp
}

// SetInCollection flags whether url is in the collection.
func (a *AllUrls) SetInCollection(url string, in bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id, ok := a.record(url); ok {
		a.recs[id].InCollection = in
	}
}

// Scan calls fn for every record (copy) in sorted URL order, stopping if
// fn returns false. The RankingModule "constantly scans through AllUrls".
// The records are those that existed when Scan began, each read as fn
// reaches it; fn runs without the table's lock.
func (a *AllUrls) Scan(fn func(URLInfo) bool) {
	a.mu.RLock()
	ids := make([]int32, 0, a.n)
	for id, ok := range a.known {
		if ok {
			ids = append(ids, int32(id))
		}
	}
	slices.SortFunc(ids, func(x, y int32) int { return strings.Compare(a.ids.URL(x), a.ids.URL(y)) })
	a.mu.RUnlock()
	for _, id := range ids {
		a.mu.RLock()
		info := a.recs[id]
		a.mu.RUnlock()
		if !fn(info) {
			return
		}
	}
}

// Entry is one element of the revisit queue (the paper's CollUrls).
type Entry struct {
	URL string
	// Due is the scheduled visit time; the queue pops the earliest Due
	// first. The RankingModule schedules new pages with Due = -Inf
	// semantics by using a very early time.
	Due float64
	// Priority breaks Due ties: higher first (importance).
	Priority float64
	index    int
}

// entryHeap orders by Due ascending, then Priority descending, then URL.
type entryHeap []*Entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].Due != h[j].Due {
		return h[i].Due < h[j].Due
	}
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].URL < h[j].URL
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*Entry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
