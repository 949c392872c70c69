// Package webgraph stores the directed link graph among pages and the
// site-level hypergraph projection the paper uses for site selection
// (Section 2.2): nodes are web sites and an edge exists between two sites
// when any page of one links to any page of the other.
//
// A Graph takes and returns URLs but keeps pages by dense int32 ID: it
// interns every URL into its own urlid.Table, private to the graph and
// guarded by its lock, and indexes each page's liveness and link lists
// by that ID. The table is append-only and IDs are never reused: a
// removed page keeps its ID, and linking to it again revives it.
package webgraph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"webevolve/internal/urlid"
)

// PageID identifies a page; callers use URLs.
type PageID = string

// Graph is a mutable directed graph over pages. It is safe for concurrent
// use: crawler modules add links while the ranking module scans.
type Graph struct {
	mu  sync.RWMutex
	ids urlid.Table
	// live[id] reports whether the page is a node; out[id] and in[id]
	// are its neighbours, each once. out[id] is in the order SetLinks
	// was last given them, AddLink appending; in[id] is unordered.
	live         []bool
	out, in      [][]int32
	pages, links int
	// SetLinks' scratch: the links as IDs, deduplicated in place, and a
	// per-ID mark — stamp for the old out-list, stamp+1 for the new —
	// valid for the call that set stamp.
	tos   []int32
	mark  []uint32
	stamp uint32
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddPage ensures the page exists as a node.
func (g *Graph) AddPage(p PageID) {
	g.mu.Lock()
	g.ensure(p)
	g.mu.Unlock()
}

// ensure makes p a node and returns its ID.
func (g *Graph) ensure(p PageID) int32 {
	id, isNew := g.ids.Intern(p)
	if isNew {
		g.live = append(g.live, false)
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
		g.mark = append(g.mark, 0)
	}
	if !g.live[id] {
		g.live[id] = true
		g.pages++
	}
	return id
}

// AddLink records a directed link from -> to, creating nodes as needed.
// Self-links are recorded but ignored by PageRank.
func (g *Graph) AddLink(from, to PageID) {
	g.mu.Lock()
	f, t := g.ensure(from), g.ensure(to)
	if !slices.Contains(g.out[f], t) {
		g.link(f, t)
	}
	g.mu.Unlock()
}

func (g *Graph) link(f, t int32) {
	g.out[f] = append(g.out[f], t)
	g.in[t] = append(g.in[t], f)
	g.links++
}

// SetLinks replaces the out-links of a page with tos and appends to
// added, in input order, each link that was not already an out-link
// (once, however often tos repeats it). The crawler calls this when a
// page's new version is fetched. The page's out-list keeps tos' order,
// each link once, so a call that repeats the page's last links in the
// same order — most revisits of a changed page — is recognized by
// comparing URLs position by position and returns without looking up a
// single link. Otherwise it applies the difference: links in both sets
// keep their in-edges, only links that left lose theirs and only new
// ones gain one, so a revisit that changed nothing touches no list but
// the page's own.
func (g *Graph) SetLinks(from PageID, tos, added []PageID) []PageID {
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.ensure(from)
	old := g.out[f]
	if g.sameURLs(old, tos) {
		return added
	}
	ids := g.tos[:0]
	for _, to := range tos {
		ids = append(ids, g.ensure(to))
	}
	g.tos = ids
	if g.stamp >= math.MaxUint32-1 {
		clear(g.mark)
		g.stamp = 0
	}
	g.stamp += 2
	inOld, inNew := g.stamp, g.stamp+1
	for _, t := range old {
		g.mark[t] = inOld
	}
	next := ids[:0] // never passes the link being read
	for i, t := range ids {
		switch g.mark[t] {
		case inNew:
			continue // a repeat
		case inOld:
		default:
			g.in[t] = append(g.in[t], f)
			g.links++
			added = append(added, tos[i])
		}
		g.mark[t] = inNew
		next = append(next, t)
	}
	for _, t := range old {
		if g.mark[t] == inOld { // the link left
			g.in[t] = swapRemove(g.in[t], slices.Index(g.in[t], f))
			g.links--
		}
	}
	g.out[f] = append(old[:0], next...)
	return added
}

// sameURLs reports whether ids names exactly urls, position by
// position.
func (g *Graph) sameURLs(ids []int32, urls []PageID) bool {
	if len(ids) != len(urls) {
		return false
	}
	for i, id := range ids {
		if g.ids.URL(id) != urls[i] {
			return false
		}
	}
	return true
}

// swapRemove deletes s[i], moving the last element into its place.
func swapRemove(s []int32, i int) []int32 {
	s[i] = s[len(s)-1]
	return s[:len(s)-1]
}

// RemovePage deletes a node and all incident edges. The page keeps its
// ID.
func (g *Graph) RemovePage(p PageID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	id, ok := g.ids.Lookup(p)
	if !ok || !g.live[id] {
		return
	}
	for _, t := range g.out[id] {
		if t != id {
			g.in[t] = swapRemove(g.in[t], slices.Index(g.in[t], id))
		}
	}
	for _, f := range g.in[id] {
		if f != id {
			g.out[f] = swapRemove(g.out[f], slices.Index(g.out[f], id))
			g.links--
		}
	}
	g.links -= len(g.out[id])
	g.out[id], g.in[id] = nil, nil
	g.live[id] = false
	g.pages--
}

// node returns p's ID if p is a node.
func (g *Graph) node(p PageID) (int32, bool) {
	id, ok := g.ids.Lookup(p)
	return id, ok && g.live[id]
}

// HasPage reports whether p is a node.
func (g *Graph) HasPage(p PageID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.node(p)
	return ok
}

// NumPages returns the node count.
func (g *Graph) NumPages() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.pages
}

// NumLinks returns the edge count.
func (g *Graph) NumLinks() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.links
}

// OutLinks returns a sorted copy of p's out-neighbours.
func (g *Graph) OutLinks(p PageID) []PageID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.neighbours(g.out, p)
}

// InLinks returns a sorted copy of p's in-neighbours.
func (g *Graph) InLinks(p PageID) []PageID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.neighbours(g.in, p)
}

// neighbours returns the sorted URLs of p's list in lists.
func (g *Graph) neighbours(lists [][]int32, p PageID) []PageID {
	id, ok := g.node(p)
	if !ok {
		return []PageID{}
	}
	out := g.urls(lists[id])
	sort.Strings(out)
	return out
}

// urls returns the URLs of ids, in order.
func (g *Graph) urls(ids []int32) []PageID {
	out := make([]PageID, len(ids))
	for i, id := range ids {
		out[i] = g.ids.URL(id)
	}
	return out
}

// sortedNodes returns the nodes' IDs in URL order.
func (g *Graph) sortedNodes() []int32 {
	order := make([]int32, 0, g.pages)
	for id, ok := range g.live {
		if ok {
			order = append(order, int32(id))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(g.ids.URL(a), g.ids.URL(b)) })
	return order
}

// Pages returns all node IDs in sorted order.
func (g *Graph) Pages() []PageID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.urls(g.sortedNodes())
}

// Snapshot returns an immutable adjacency view suitable for iterative
// algorithms (PageRank). Node order is deterministic: IDs holds the
// pages sorted by URL, and Out[i] the sorted positions in IDs of page
// i's out-neighbours, self-links left out.
type Snapshot struct {
	IDs []PageID
	Out [][]int32
}

// Snapshot captures the current graph.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	order := g.sortedNodes()
	pos := make([]int32, len(g.live))
	for i, id := range order {
		pos[id] = int32(i)
	}
	// The rows share one array, each capped at its own end.
	flat := make([]int32, 0, g.links)
	out := make([][]int32, len(order))
	for i, id := range order {
		start := len(flat)
		for _, t := range g.out[id] {
			if t != id { // self-links carry no rank
				flat = append(flat, pos[t])
			}
		}
		row := flat[start:len(flat):len(flat)]
		slices.Sort(row)
		out[i] = row
	}
	return &Snapshot{IDs: g.urls(order), Out: out}
}

// SiteOf extracts the site (host) component of a URL-like page ID. It
// accepts "scheme://host/path", "host/path" and bare "host" forms.
func SiteOf(p PageID) string {
	s := p
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// DomainOf classifies a host into the paper's four domain groups
// (Table 1): "com", "edu", "netorg" (.net and .org) and "gov" (.gov and
// .mil). Anything else is reported as "other".
func DomainOf(host string) string {
	h := strings.ToLower(host)
	switch {
	case strings.HasSuffix(h, ".com") || h == "com":
		return "com"
	case strings.HasSuffix(h, ".edu") || h == "edu":
		return "edu"
	case strings.HasSuffix(h, ".net") || strings.HasSuffix(h, ".org"),
		h == "net", h == "org":
		return "netorg"
	case strings.HasSuffix(h, ".gov") || strings.HasSuffix(h, ".mil"),
		h == "gov", h == "mil":
		return "gov"
	default:
		return "other"
	}
}

// SiteGraph is the hypergraph projection of Section 2.2: one node per
// site, one directed edge (u,v) when any page on site u links to any page
// on site v. Intra-site links are excluded, as they say nothing about
// cross-site popularity.
type SiteGraph struct {
	Sites []string
	Index map[string]int
	Out   [][]int32
}

// ProjectSites builds the site hypergraph from a page graph.
func ProjectSites(g *Graph) *SiteGraph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	siteSet := make(map[string]map[string]struct{})
	ensureSite := func(s string) map[string]struct{} {
		m, ok := siteSet[s]
		if !ok {
			m = make(map[string]struct{})
			siteSet[s] = m
		}
		return m
	}
	for id, ok := range g.live {
		if !ok {
			continue
		}
		fs := SiteOf(g.ids.URL(int32(id)))
		ensureSite(fs)
		for _, to := range g.out[id] {
			ts := SiteOf(g.ids.URL(to))
			ensureSite(ts)
			if fs != ts {
				siteSet[fs][ts] = struct{}{}
			}
		}
	}
	sites := make([]string, 0, len(siteSet))
	for s := range siteSet {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	idx := make(map[string]int, len(sites))
	for i, s := range sites {
		idx[s] = i
	}
	out := make([][]int32, len(sites))
	for i, s := range sites {
		row := make([]int32, 0, len(siteSet[s]))
		for t := range siteSet[s] {
			row = append(row, int32(idx[t]))
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		out[i] = row
	}
	return &SiteGraph{Sites: sites, Index: idx, Out: out}
}

// Validate checks internal consistency of the graph (every out-edge has a
// matching in-edge and vice versa, both ends are nodes, and the edge
// count is right). Tests and debugging use it.
func (g *Graph) Validate() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	links := 0
	for id, out := range g.out {
		links += len(out)
		for _, t := range out {
			if !g.live[id] || !g.live[t] || !slices.Contains(g.in[t], int32(id)) {
				return fmt.Errorf("webgraph: missing in-edge %s -> %s", g.ids.URL(int32(id)), g.ids.URL(t))
			}
		}
		for _, f := range g.in[id] {
			if !slices.Contains(g.out[f], int32(id)) {
				return errors.New("webgraph: dangling in-edge " + g.ids.URL(f) + " -> " + g.ids.URL(int32(id)))
			}
		}
	}
	if links != g.links {
		return fmt.Errorf("webgraph: %d edges counted as %d", links, g.links)
	}
	return nil
}
