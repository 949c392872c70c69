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
	"sort"
	"sync"
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
type AllUrls struct {
	mu sync.RWMutex
	m  map[string]*URLInfo
	// inlinkFrom deduplicates in-link counting: source -> set of targets
	// it has reported.
	inlinkFrom map[string]map[string]struct{}
}

// NewAllUrls returns an empty URL table.
func NewAllUrls() *AllUrls {
	return &AllUrls{
		m:          make(map[string]*URLInfo),
		inlinkFrom: make(map[string]map[string]struct{}),
	}
}

// Add records a URL discovered at time now. It returns true when the URL
// is new.
func (a *AllUrls) Add(url string, now float64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.m[url]; ok {
		return false
	}
	a.m[url] = &URLInfo{URL: url, FirstSeen: now}
	return true
}

// AddLink records that page from links to page to, discovered at time
// now. The target is added if new, and its in-link count incremented the
// first time this (from, to) pair is seen.
func (a *AllUrls) AddLink(from, to string, now float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	info, ok := a.m[to]
	if !ok {
		info = &URLInfo{URL: to, FirstSeen: now}
		a.m[to] = info
	}
	seen, ok := a.inlinkFrom[from]
	if !ok {
		seen = make(map[string]struct{})
		a.inlinkFrom[from] = seen
	}
	if _, dup := seen[to]; !dup {
		seen[to] = struct{}{}
		info.InLinks++
	}
}

// Get returns a copy of the record for url.
func (a *AllUrls) Get(url string) (URLInfo, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	info, ok := a.m[url]
	if !ok {
		return URLInfo{}, false
	}
	return *info, true
}

// Len returns the number of discovered URLs.
func (a *AllUrls) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.m)
}

// SetImportance stores an importance score for url, creating the record
// if needed (the ranking module can score URLs it has only seen links
// to — footnote 2 of the paper).
func (a *AllUrls) SetImportance(url string, imp float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	info, ok := a.m[url]
	if !ok {
		info = &URLInfo{URL: url}
		a.m[url] = info
	}
	info.Importance = imp
}

// SetInCollection flags whether url is in the collection.
func (a *AllUrls) SetInCollection(url string, in bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if info, ok := a.m[url]; ok {
		info.InCollection = in
	}
}

// Scan calls fn for every record (copy) in sorted URL order, stopping if
// fn returns false. The RankingModule "constantly scans through AllUrls".
func (a *AllUrls) Scan(fn func(URLInfo) bool) {
	a.mu.RLock()
	urls := make([]string, 0, len(a.m))
	for u := range a.m {
		urls = append(urls, u)
	}
	a.mu.RUnlock()
	sort.Strings(urls)
	for _, u := range urls {
		a.mu.RLock()
		info, ok := a.m[u]
		var cp URLInfo
		if ok {
			cp = *info
		}
		a.mu.RUnlock()
		if !ok {
			continue
		}
		if !fn(cp) {
			return
		}
	}
}

// Candidates returns the non-collection URLs with the highest importance,
// up to k, sorted by importance descending (ties by URL). The
// RankingModule uses this to find replacement candidates.
func (a *AllUrls) Candidates(k int) []URLInfo {
	a.mu.RLock()
	out := make([]URLInfo, 0, 64)
	for _, info := range a.m {
		if !info.InCollection {
			out = append(out, *info)
		}
	}
	a.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Importance != out[j].Importance {
			return out[i].Importance > out[j].Importance
		}
		return out[i].URL < out[j].URL
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
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
