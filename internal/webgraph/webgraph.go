// Package webgraph stores the directed link graph among pages and the
// site-level hypergraph projection the paper uses for site selection
// (Section 2.2): nodes are web sites and an edge exists between two sites
// when any page of one links to any page of the other.
package webgraph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// PageID identifies a page; callers use URLs.
type PageID = string

// Graph is a mutable directed graph over pages. It is safe for concurrent
// use: crawler modules add links while the ranking module scans.
type Graph struct {
	mu  sync.RWMutex
	out map[PageID]map[PageID]struct{}
	in  map[PageID]map[PageID]struct{}
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		out: make(map[PageID]map[PageID]struct{}),
		in:  make(map[PageID]map[PageID]struct{}),
	}
}

// AddPage ensures the page exists as a node.
func (g *Graph) AddPage(p PageID) {
	g.mu.Lock()
	g.ensure(p)
	g.mu.Unlock()
}

func (g *Graph) ensure(p PageID) {
	if _, ok := g.out[p]; !ok {
		g.out[p] = make(map[PageID]struct{})
	}
	if _, ok := g.in[p]; !ok {
		g.in[p] = make(map[PageID]struct{})
	}
}

// AddLink records a directed link from -> to, creating nodes as needed.
// Self-links are recorded but ignored by PageRank.
func (g *Graph) AddLink(from, to PageID) {
	g.mu.Lock()
	g.ensure(from)
	g.ensure(to)
	g.out[from][to] = struct{}{}
	g.in[to][from] = struct{}{}
	g.mu.Unlock()
}

// SetLinks replaces the out-links of a page with the given set and
// appends to added, in input order, each link that was not already an
// out-link (once, however often tos repeats it). The crawler calls this
// when a page's new version is fetched. It applies the difference: links
// in both sets are left alone, only links that left are deleted and
// only new ones inserted, so a revisit that changed nothing costs one
// lookup per link.
func (g *Graph) SetLinks(from PageID, tos, added []PageID) []PageID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensure(from)
	out := g.out[from]
	for _, to := range tos {
		if _, ok := out[to]; ok {
			continue
		}
		g.ensure(to)
		out[to] = struct{}{}
		g.in[to][from] = struct{}{}
		added = append(added, to)
	}
	// out is now the old set joined with the new one, which it equals
	// exactly when no link left. A short list is searched in place, a
	// long one through a set, so the cost stays linear in the links.
	if len(tos) <= smallLinks {
		if len(out) == len(tos) && !hasRepeat(tos) {
			return added
		}
		for to := range out {
			if !slices.Contains(tos, to) {
				g.unlink(from, to)
			}
		}
		return added
	}
	keep := make(map[PageID]struct{}, len(tos))
	for _, to := range tos {
		keep[to] = struct{}{}
	}
	if len(keep) < len(out) {
		for to := range out {
			if _, ok := keep[to]; !ok {
				g.unlink(from, to)
			}
		}
	}
	return added
}

// smallLinks is the longest link list SetLinks searches in place.
const smallLinks = 16

func hasRepeat(s []PageID) bool {
	for i := 1; i < len(s); i++ {
		if slices.Contains(s[:i], s[i]) {
			return true
		}
	}
	return false
}

func (g *Graph) unlink(from, to PageID) {
	delete(g.out[from], to)
	delete(g.in[to], from)
}

// RemovePage deletes a node and all incident edges.
func (g *Graph) RemovePage(p PageID) {
	g.mu.Lock()
	for to := range g.out[p] {
		delete(g.in[to], p)
	}
	for from := range g.in[p] {
		delete(g.out[from], p)
	}
	delete(g.out, p)
	delete(g.in, p)
	g.mu.Unlock()
}

// HasPage reports whether p is a node.
func (g *Graph) HasPage(p PageID) bool {
	g.mu.RLock()
	_, ok := g.out[p]
	g.mu.RUnlock()
	return ok
}

// NumPages returns the node count.
func (g *Graph) NumPages() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.out)
}

// NumLinks returns the edge count.
func (g *Graph) NumLinks() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, m := range g.out {
		n += len(m)
	}
	return n
}

// OutLinks returns a sorted copy of p's out-neighbours.
func (g *Graph) OutLinks(p PageID) []PageID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return sortedKeys(g.out[p])
}

// InLinks returns a sorted copy of p's in-neighbours.
func (g *Graph) InLinks(p PageID) []PageID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return sortedKeys(g.in[p])
}

// OutDegree returns the number of out-links of p.
func (g *Graph) OutDegree(p PageID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.out[p])
}

// InDegree returns the number of in-links of p.
func (g *Graph) InDegree(p PageID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.in[p])
}

// Pages returns all node IDs in sorted order.
func (g *Graph) Pages() []PageID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return sortedKeys(g.out)
}

func sortedKeys[V any](m map[PageID]V) []PageID {
	out := make([]PageID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns an immutable adjacency view suitable for iterative
// algorithms (PageRank). Node order is deterministic.
type Snapshot struct {
	IDs   []PageID
	Index map[PageID]int
	Out   [][]int32
}

// Snapshot captures the current graph.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := sortedKeys(g.out)
	idx := make(map[PageID]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	out := make([][]int32, len(ids))
	for i, id := range ids {
		neigh := g.out[id]
		row := make([]int32, 0, len(neigh))
		for to := range neigh {
			if to == id {
				continue // self-links carry no rank
			}
			row = append(row, int32(idx[to]))
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		out[i] = row
	}
	return &Snapshot{IDs: ids, Index: idx, Out: out}
}

// BFSWindow returns up to limit pages reachable breadth-first from root,
// including root, in visit order. Neighbour order is deterministic
// (sorted), matching the paper's "window of pages" from a site root
// (Section 2.1): pages deeper than the window's reach are invisible.
func (g *Graph) BFSWindow(root PageID, limit int) []PageID {
	if limit <= 0 {
		return nil
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.out[root]; !ok {
		return nil
	}
	visited := map[PageID]struct{}{root: {}}
	order := []PageID{root}
	queue := []PageID{root}
	for len(queue) > 0 && len(order) < limit {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range sortedKeys(g.out[cur]) {
			if _, seen := visited[next]; seen {
				continue
			}
			visited[next] = struct{}{}
			order = append(order, next)
			if len(order) >= limit {
				break
			}
			queue = append(queue, next)
		}
	}
	return order
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

// Domains lists the paper's domain groups in Table 1 order.
var Domains = []string{"com", "edu", "netorg", "gov"}

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
	for from, tos := range g.out {
		fs := SiteOf(from)
		ensureSite(fs)
		for to := range tos {
			ts := SiteOf(to)
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
// matching in-edge and vice versa). Tests and debugging use it.
func (g *Graph) Validate() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for from, tos := range g.out {
		for to := range tos {
			if _, ok := g.in[to][from]; !ok {
				return fmt.Errorf("webgraph: missing in-edge %s -> %s", from, to)
			}
		}
	}
	for to, froms := range g.in {
		for from := range froms {
			if _, ok := g.out[from][to]; !ok {
				return errors.New("webgraph: dangling in-edge " + from + " -> " + to)
			}
		}
	}
	return nil
}
