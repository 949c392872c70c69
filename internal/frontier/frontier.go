// Package frontier implements the two URL data structures of the paper's
// incremental-crawler architecture (Figure 12):
//
//   - AllUrls: the set of every URL the crawler has ever discovered, with
//     the metadata the RankingModule scans (when the URL was first seen,
//     how many discovered pages link to it).
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
	// ID is the URL's ID in the urlid.Table AllUrls interns into.
	ID int32
	// FirstSeen is the discovery time (days).
	FirstSeen float64
	// InLinks counts distinct discovered pages linking here; a cheap
	// importance proxy refreshed by the ranking module.
	InLinks int
}

// AllUrls records every URL discovered, with metadata. Safe for
// concurrent use: CrawlModules add URLs while the RankingModule scans.
//
// Inside, a URL is a dense ID from the urlid.Table AllUrls was built on
// — a crawl's one table, shared with its page graph and engine, or a
// fresh one — and records and link lists are slices indexed by that ID,
// guarded by AllUrls' lock and grown to the table's length when an ID
// past their end turns up. A record holds no URL: Get and Scan fill it
// in from the table. Nothing is ever forgotten, so neither is an ID.
type AllUrls struct {
	mu  sync.RWMutex
	ids *urlid.Table
	// recs[id] is the record of the URL with that ID where known; a URL
	// seen only as a link's source, or interned by another user of the
	// table, has no record.
	recs []urlRec
	n    int // records
	// reported[id] lists, each once, every target the URL with that ID
	// has reported a link to, so that a (from, to) pair counts toward
	// InLinks once however often the link leaves the page and returns.
	reported [][]int32
}

// urlRec is a URLInfo without the URL and its ID, which its index in
// AllUrls.recs names.
type urlRec struct {
	firstSeen float64
	inLinks   int32
	known     bool
}

// NewAllUrls returns an empty URL table on a urlid.Table of its own.
func NewAllUrls() *AllUrls { return NewAllUrlsOn(new(urlid.Table)) }

// NewAllUrlsOn returns an empty URL table that interns into ids, which
// other users may share.
func NewAllUrlsOn(ids *urlid.Table) *AllUrls { return &AllUrls{ids: ids} }

// intern returns url's ID, growing the per-ID slices to the table's
// length if it lies past them.
func (a *AllUrls) intern(url string) int32 {
	id, _ := a.ids.Intern(url)
	if int(id) >= len(a.recs) {
		n := a.ids.Len()
		a.recs = append(a.recs, make([]urlRec, n-len(a.recs))...)
		a.reported = append(a.reported, make([][]int32, n-len(a.reported))...)
	}
	return id
}

// add returns url's ID, first giving it a record discovered at now if
// it has none, and reports whether it did.
func (a *AllUrls) add(url string, now float64) (int32, bool) {
	id := a.intern(url)
	if a.recs[id].known {
		return id, false
	}
	a.recs[id] = urlRec{firstSeen: now, known: true}
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
		a.recs[t].inLinks++
	}
}

// info returns the record of the known URL with the given ID.
func (a *AllUrls) info(id int32) URLInfo {
	r := a.recs[id]
	return URLInfo{URL: a.ids.URL(id), ID: id, FirstSeen: r.firstSeen, InLinks: int(r.inLinks)}
}

// Get returns a copy of the record for url.
func (a *AllUrls) Get(url string) (URLInfo, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	id, ok := a.ids.Lookup(url)
	if !ok || int(id) >= len(a.recs) || !a.recs[id].known {
		return URLInfo{}, false
	}
	return a.info(id), true
}

// Len returns the number of discovered URLs.
func (a *AllUrls) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.n
}

// Scan calls fn for every record (copy) in sorted URL order, stopping if
// fn returns false. The RankingModule "constantly scans through AllUrls".
// The records are those that existed when Scan began, each read as fn
// reaches it; fn runs without the table's lock.
func (a *AllUrls) Scan(fn func(URLInfo) bool) {
	a.mu.RLock()
	ids := make([]int32, 0, a.n)
	for id, r := range a.recs {
		if r.known {
			ids = append(ids, int32(id))
		}
	}
	a.mu.RUnlock()
	slices.SortFunc(ids, func(x, y int32) int { return strings.Compare(a.ids.URL(x), a.ids.URL(y)) })
	for _, id := range ids {
		a.mu.RLock()
		info := a.info(id)
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
	// slot is the in-memory queue slot the entry was read from. A copy
	// the queue hands out keeps it, so pushing that copy back finds its
	// slot without a URL lookup; the queue checks it before trusting it.
	slot int32
}

// Equal reports whether e and o are the same entry: URL, Due and
// Priority. The slot only says which queue slot a copy was read from.
func (e Entry) Equal(o Entry) bool {
	return e.URL == o.URL && e.Due == o.Due && e.Priority == o.Priority
}
