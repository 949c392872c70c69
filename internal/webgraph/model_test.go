package webgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// mapGraph is the graph as it was kept before pages had IDs: one
// map-of-sets per direction, keyed by URL. It is the reference the
// ID-based Graph must match op for op.
type mapGraph struct {
	out map[PageID]map[PageID]struct{}
	in  map[PageID]map[PageID]struct{}
}

func newMapGraph() *mapGraph {
	return &mapGraph{
		out: make(map[PageID]map[PageID]struct{}),
		in:  make(map[PageID]map[PageID]struct{}),
	}
}

func (g *mapGraph) AddPage(p PageID) { g.ensure(p) }

func (g *mapGraph) ensure(p PageID) {
	if _, ok := g.out[p]; !ok {
		g.out[p] = make(map[PageID]struct{})
	}
	if _, ok := g.in[p]; !ok {
		g.in[p] = make(map[PageID]struct{})
	}
}

func (g *mapGraph) AddLink(from, to PageID) {
	g.ensure(from)
	g.ensure(to)
	g.out[from][to] = struct{}{}
	g.in[to][from] = struct{}{}
}

func (g *mapGraph) SetLinks(from PageID, tos, added []PageID) []PageID {
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
	keep := make(map[PageID]struct{}, len(tos))
	for _, to := range tos {
		keep[to] = struct{}{}
	}
	for to := range out {
		if _, ok := keep[to]; !ok {
			delete(g.out[from], to)
			delete(g.in[to], from)
		}
	}
	return added
}

func (g *mapGraph) RemovePage(p PageID) {
	for to := range g.out[p] {
		delete(g.in[to], p)
	}
	for from := range g.in[p] {
		delete(g.out[from], p)
	}
	delete(g.out, p)
	delete(g.in, p)
}

func (g *mapGraph) NumLinks() int {
	n := 0
	for _, m := range g.out {
		n += len(m)
	}
	return n
}

func sortedKeys[V any](m map[PageID]V) []PageID {
	out := make([]PageID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (g *mapGraph) Snapshot() *Snapshot {
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
	return &Snapshot{IDs: ids, Out: out}
}

// modelNames is the op runner's URL alphabet: small, so that links
// repeat, point back at their page, and leave and return.
var modelNames = func() []PageID {
	var names []PageID
	for i := 0; i < 10; i++ {
		names = append(names, fmt.Sprintf("http://s%d.com/p%d", i%3, i))
	}
	return names
}()

// modelRun counts what an op sequence exercised.
type modelRun struct {
	ops, repeats, selfLinks, reentered, revived int
}

// runGraphOps decodes ops from data and applies each to a Graph and to
// the map model, failing at the first op after which the two differ:
// the links SetLinks reports as added, Snapshot (deeply equal), the
// page and link counts, and every name's presence and in- and
// out-sets. A byte picks the op, then one byte names each page; a
// SetLinks list's length is its own byte.
func runGraphOps(t testing.TB, data []byte) modelRun {
	t.Helper()
	g, m := New(), newMapGraph()
	var run modelRun
	var gotAdded, wantAdded []PageID
	left := map[[2]PageID]bool{} // links SetLinks deleted
	removed := map[PageID]bool{} // pages RemovePage deleted
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return int(b), true
	}
	name := func() (PageID, bool) {
		b, ok := next()
		return modelNames[b%len(modelNames)], ok
	}
	for {
		op, ok := next()
		if !ok {
			return run
		}
		from, ok := name()
		if !ok {
			return run
		}
		var desc string
		switch op % 8 {
		case 0:
			desc = "AddPage " + from
			g.AddPage(from)
			m.AddPage(from)
		case 1, 2:
			to, ok := name()
			if !ok {
				return run
			}
			desc = "AddLink " + from + " " + to
			if from == to {
				run.selfLinks++
			}
			g.AddLink(from, to)
			m.AddLink(from, to)
		case 7:
			desc = "RemovePage " + from
			if _, ok := m.out[from]; ok {
				removed[from] = true
			}
			g.RemovePage(from)
			m.RemovePage(from)
		default:
			n, _ := next()
			tos := make([]PageID, 0, n%24)
			for len(tos) < cap(tos) {
				to, ok := name()
				if !ok {
					break
				}
				tos = append(tos, to)
			}
			desc = fmt.Sprintf("SetLinks %s %v", from, tos)
			for i, to := range tos {
				if slices.Contains(tos[:i], to) {
					run.repeats++
				}
				if to == from {
					run.selfLinks++
				}
			}
			for to := range m.out[from] {
				if !slices.Contains(tos, to) {
					left[[2]PageID{from, to}] = true
				}
			}
			gotAdded = g.SetLinks(from, tos, gotAdded[:0])
			wantAdded = m.SetLinks(from, tos, wantAdded[:0])
			if !slices.Equal(gotAdded, wantAdded) {
				t.Fatalf("op %d (%s): added %v, map model added %v", run.ops, desc, gotAdded, wantAdded)
			}
			for _, to := range gotAdded {
				if left[[2]PageID{from, to}] {
					delete(left, [2]PageID{from, to})
					run.reentered++
				}
			}
		}
		for p := range removed {
			if _, ok := m.out[p]; ok {
				delete(removed, p)
				run.revived++
			}
		}
		if err := compareWithMapModel(g, m); err != nil {
			t.Fatalf("op %d (%s): %v", run.ops, desc, err)
		}
		run.ops++
	}
}

func compareWithMapModel(g *Graph, m *mapGraph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if g.NumPages() != len(m.out) || g.NumLinks() != m.NumLinks() {
		return fmt.Errorf("%d pages %d links, map model %d pages %d links",
			g.NumPages(), g.NumLinks(), len(m.out), m.NumLinks())
	}
	if gs, ms := g.Snapshot(), m.Snapshot(); !reflect.DeepEqual(gs, ms) {
		return fmt.Errorf("snapshot %v %v, map model %v %v", gs.IDs, gs.Out, ms.IDs, ms.Out)
	}
	if !slices.Equal(g.Pages(), sortedKeys(m.out)) {
		return fmt.Errorf("pages %v, map model %v", g.Pages(), sortedKeys(m.out))
	}
	for _, p := range modelNames {
		_, has := m.out[p]
		if g.HasPage(p) != has {
			return fmt.Errorf("HasPage(%s) = %v, map model %v", p, !has, has)
		}
		if out, want := g.OutLinks(p), sortedKeys(m.out[p]); !slices.Equal(out, want) {
			return fmt.Errorf("%s out %v, map model %v", p, out, want)
		}
		if in, want := g.InLinks(p), sortedKeys(m.in[p]); !slices.Equal(in, want) {
			return fmt.Errorf("%s in %v, map model %v", p, in, want)
		}
	}
	return nil
}

// TestGraphMatchesMapModel drives random op sequences through the Graph
// and the map model and requires them to agree after every op, then
// checks that the sequences did exercise repeated links, self-links,
// links that left a page and came back, and removed pages linked again.
func TestGraphMatchesMapModel(t *testing.T) {
	var total modelRun
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2000)
		rng.Read(data)
		run := runGraphOps(t, data)
		total.ops += run.ops
		total.repeats += run.repeats
		total.selfLinks += run.selfLinks
		total.reentered += run.reentered
		total.revived += run.revived
	}
	t.Logf("%+v", total)
	if total.repeats < 100 || total.selfLinks < 100 || total.reentered < 100 || total.revived < 20 {
		t.Fatalf("ops too tame: %+v", total)
	}
}

// FuzzGraphOps is TestGraphMatchesMapModel on arbitrary op bytes.
func FuzzGraphOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// Page 0 links to [1 2], then to [1 1]: the repeat keeps the list as
	// long as the out-set while 2 leaves it.
	f.Add([]byte{3, 0, 2, 1, 2, 3, 0, 2, 1, 1})
	// One call repeated: with a self-link; with repeats (never equal to
	// the out-list it makes); after a reorder; after AddLink grew the
	// list; after a target, then the page itself, was removed; empty.
	f.Add([]byte{3, 0, 3, 1, 2, 0, 3, 0, 3, 1, 2, 0, 3, 0, 3, 1, 2, 0})
	f.Add([]byte{4, 0, 4, 1, 1, 2, 1, 4, 0, 4, 1, 1, 2, 1})
	f.Add([]byte{5, 0, 2, 1, 2, 5, 0, 2, 2, 1, 5, 0, 2, 2, 1})
	f.Add([]byte{6, 0, 2, 1, 2, 1, 0, 3, 6, 0, 2, 1, 2, 6, 0, 2, 1, 2})
	f.Add([]byte{3, 0, 2, 1, 2, 7, 2, 3, 0, 2, 1, 2, 3, 0, 2, 1, 2, 7, 0, 3, 0, 2, 1, 2, 3, 0, 2, 1, 2})
	f.Add([]byte{3, 0, 1, 1, 7, 0, 3, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runGraphOps(t, data)
	})
}
