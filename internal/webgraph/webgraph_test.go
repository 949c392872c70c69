package webgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"webevolve/internal/urlid"
)

func TestAddLinkCreatesNodes(t *testing.T) {
	g := New()
	g.AddLink("a", "b")
	if !g.HasPage("a") || !g.HasPage("b") {
		t.Fatal("AddLink did not create nodes")
	}
	if g.NumPages() != 2 || g.NumLinks() != 1 {
		t.Fatalf("pages=%d links=%d", g.NumPages(), g.NumLinks())
	}
}

func TestOutInLinksConsistent(t *testing.T) {
	g := New()
	g.AddLink("a", "b")
	g.AddLink("a", "c")
	g.AddLink("b", "c")
	if got := g.OutLinks("a"); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("OutLinks(a) = %v", got)
	}
	if got := g.InLinks("c"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("InLinks(c) = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetLinksReplaces(t *testing.T) {
	g := New()
	g.AddLink("p", "old1")
	g.AddLink("p", "old2")
	g.SetLinks("p", []string{"new1", "old2"})
	out := g.OutLinks("p")
	if len(out) != 2 || out[0] != "new1" || out[1] != "old2" {
		t.Fatalf("OutLinks = %v", out)
	}
	if got := g.InLinks("old1"); len(got) != 0 {
		t.Fatalf("old1 still has in-links %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSetLinksRepeatChangesNothing: a call that passes a page's links
// again, in the same order, leaves every page's in- and out-set and the
// link count as they were — also when the list repeats links or holds a
// self-link.
func TestSetLinksRepeatChangesNothing(t *testing.T) {
	for _, tos := range [][]PageID{
		{"a", "b", "c"},
		{"b", "p", "a"},
		{"a", "b", "a", "p", "p"},
		{},
	} {
		g := New()
		g.AddLink("a", "p")
		g.AddLink("q", "b")
		g.SetLinks("p", tos)
		before, links := linkSets(g), g.NumLinks()
		g.SetLinks("p", tos)
		if after := linkSets(g); !reflect.DeepEqual(after, before) || g.NumLinks() != links {
			t.Fatalf("repeating SetLinks(p, %v): links %v (%d), before %v (%d)", tos, after, g.NumLinks(), before, links)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// linkSets returns every page's sorted out- and in-links.
func linkSets(g *Graph) map[PageID][2][]PageID {
	sets := map[PageID][2][]PageID{}
	for _, p := range g.Pages() {
		sets[p] = [2][]PageID{g.OutLinks(p), g.InLinks(p)}
	}
	return sets
}

// outList returns p's out-list in its stored order.
func outList(g *Graph, p PageID) []PageID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	id, ok := g.node(p)
	if !ok {
		return nil
	}
	return g.urls(g.out[id])
}

// TestSetLinksKeepsInputOrder: a changed call leaves the out-list in
// the call's order, each link once, whatever the list held before — a
// link AddLink appended, the same set in another order.
func TestSetLinksKeepsInputOrder(t *testing.T) {
	g := New()
	g.SetLinks("p", []PageID{"c", "a", "b"})
	g.AddLink("p", "z")
	for _, tc := range []struct{ tos, want []PageID }{
		{[]PageID{"c", "a", "b"}, []PageID{"c", "a", "b"}},
		{[]PageID{"d", "b", "a", "d"}, []PageID{"d", "b", "a"}},
		{[]PageID{"a", "b", "d"}, []PageID{"a", "b", "d"}},
		{[]PageID{"b", "a", "d", "c"}, []PageID{"b", "a", "d", "c"}},
	} {
		g.SetLinks("p", tc.tos)
		if got := outList(g, "p"); !slices.Equal(got, tc.want) {
			t.Fatalf("after SetLinks(p, %v) the out-list is %v, want %v", tc.tos, got, tc.want)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSetLinksRepeatsAndSelfLinks: a list with repeats is longer than
// the out-list it makes, so even a repeated call compares unequal and
// applies the difference — which must keep one edge per link and the
// self-link's in-edge until the self-link leaves.
func TestSetLinksRepeatsAndSelfLinks(t *testing.T) {
	g := New()
	steps := []struct {
		tos, out []PageID
		links    int
		inP      []PageID
	}{
		{[]PageID{"p", "a", "a", "p"}, []PageID{"p", "a"}, 2, []PageID{"p"}},
		{[]PageID{"p", "a", "a", "p"}, []PageID{"p", "a"}, 2, []PageID{"p"}},
		{[]PageID{"a", "p"}, []PageID{"a", "p"}, 2, []PageID{"p"}},
		{[]PageID{"a", "p", "p"}, []PageID{"a", "p"}, 2, []PageID{"p"}},
		{[]PageID{"a", "a"}, []PageID{"a"}, 1, []PageID{}},
		{[]PageID{"p"}, []PageID{"p"}, 1, []PageID{"p"}},
	}
	for i, st := range steps {
		g.SetLinks("p", st.tos)
		if got := outList(g, "p"); !slices.Equal(got, st.out) {
			t.Fatalf("step %d: out-list %v, want %v", i, got, st.out)
		}
		if g.NumLinks() != st.links || !slices.Equal(g.InLinks("p"), st.inP) {
			t.Fatalf("step %d: %d links, p's in-links %v; want %d, %v", i, g.NumLinks(), g.InLinks("p"), st.links, st.inP)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestRemovePage(t *testing.T) {
	g := New()
	g.AddLink("a", "b")
	g.AddLink("b", "c")
	g.AddLink("c", "a")
	g.RemovePage("b")
	if g.HasPage("b") {
		t.Fatal("b still present")
	}
	if got := g.OutLinks("a"); len(got) != 0 {
		t.Fatalf("a still links to %v", got)
	}
	if got := g.InLinks("c"); len(got) != 0 {
		t.Fatalf("c still linked from %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateLinksCountOnce(t *testing.T) {
	g := New()
	g.AddLink("a", "b")
	g.AddLink("a", "b")
	if g.NumLinks() != 1 {
		t.Fatalf("links = %d", g.NumLinks())
	}
}

// TestInLinksCountDistinctSources: a page's in-links name each page
// that links to it once, however often that link was added or listed.
func TestInLinksCountDistinctSources(t *testing.T) {
	g := New()
	g.AddLink("s1", "t")
	g.AddLink("s1", "t")
	g.SetLinks("s1", []PageID{"t", "t"})
	g.AddLink("s2", "t")
	if got := g.InLinks("t"); !slices.Equal(got, []PageID{"s1", "s2"}) {
		t.Fatalf("InLinks(t) = %v, want [s1 s2]", got)
	}
	if g.NumLinks() != 2 {
		t.Fatalf("links = %d, want 2", g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLinkReenteringCountsOnce: a link that leaves a page and comes
// back is one in-link again, and its target keeps the ID it was given
// when first seen: the table forgets no URL the graph lets go of.
func TestLinkReenteringCountsOnce(t *testing.T) {
	tab := new(urlid.Table)
	g := NewOn(tab)
	g.SetLinks("s", []PageID{"t"})
	tid, _ := tab.Lookup("t")
	g.SetLinks("s", []PageID{"u"}) // t left the page
	if got := g.InLinks("t"); len(got) != 0 {
		t.Fatalf("t still linked from %v", got)
	}
	g.SetLinks("s", []PageID{"t", "u"}) // and came back
	g.AddLink("u", "t")
	if got := g.InLinks("t"); !slices.Equal(got, []PageID{"s", "u"}) {
		t.Fatalf("InLinks(t) = %v, want [s u]", got)
	}
	if got := g.InLinks("u"); !slices.Equal(got, []PageID{"s"}) {
		t.Fatalf("InLinks(u) = %v, want [s]", got)
	}
	if id, ok := tab.Lookup("t"); !ok || id != tid || tab.Len() != 3 {
		t.Fatalf("t has ID %d (found %v), first %d; the table holds %d URLs, want 3", id, ok, tid, tab.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotOnSharedTable: on a table another user also interns
// into, a snapshot's rows are the graph's own nodes in URL order, never
// a URL only the other user gave or a removed page, and each row's ID
// is its URL's in the table.
func TestSnapshotOnSharedTable(t *testing.T) {
	tab := new(urlid.Table)
	for _, u := range []string{"z", "y", "x"} {
		tab.Intern(u)
	}
	g := NewOn(tab)
	g.AddLink("m", "c")
	g.AddLink("c", "x")
	g.AddLink("x", "m")
	g.AddLink("a", "gone")
	g.RemovePage("gone")
	snap := g.Snapshot()
	if got := snapURLs(snap); !slices.Equal(got, []PageID{"a", "c", "m", "x"}) {
		t.Fatalf("rows %v, want [a c m x]", got)
	}
	for i, id := range snap.URLIDs {
		if tid, ok := tab.Lookup(snap.URL(i)); !ok || tid != id {
			t.Fatalf("row %d (%s): ID %d, table ID %d (found %v)", i, snap.URL(i), id, tid, ok)
		}
	}
	if got := fmt.Sprint(snap.Out); got != "[[] [3] [1] [2]]" {
		t.Fatalf("rows' out-links %s, want [[] [3] [1] [2]]", got)
	}
}

func TestSnapshotSkipsSelfLinks(t *testing.T) {
	g := New()
	g.AddLink("a", "a")
	g.AddLink("a", "b")
	snap := g.Snapshot()
	ai := sort.SearchStrings(snapURLs(snap), "a")
	if len(snap.Out[ai]) != 1 {
		t.Fatalf("snapshot out of a = %v", snap.Out[ai])
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Snapshot {
		g := New()
		g.AddLink("z", "a")
		g.AddLink("m", "z")
		g.AddLink("a", "m")
		return g.Snapshot()
	}
	a, b := build(), build()
	au, bu := snapURLs(a), snapURLs(b)
	if fmt.Sprint(au) != fmt.Sprint(bu) || fmt.Sprint(a.Out) != fmt.Sprint(b.Out) {
		t.Fatal("snapshots differ across identical builds")
	}
	if !slices.IsSorted(au) {
		t.Fatalf("rows not sorted by URL: %v", au)
	}
}

// snapURLs returns the URLs of the snapshot's rows.
func snapURLs(s *Snapshot) []PageID {
	out := make([]PageID, len(s.URLIDs))
	for i := range out {
		out[i] = s.URL(i)
	}
	return out
}

func TestSiteOf(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://example.com/page", "example.com"},
		{"https://a.edu/", "a.edu"},
		{"bare.org/path", "bare.org"},
		{"justhost.net", "justhost.net"},
	}
	for _, c := range cases {
		if got := SiteOf(c.in); got != c.want {
			t.Errorf("SiteOf(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDomainOf(t *testing.T) {
	cases := []struct{ in, want string }{
		{"yahoo.com", "com"},
		{"www.stanford.edu", "edu"},
		{"apache.org", "netorg"},
		{"isp.net", "netorg"},
		{"nasa.gov", "gov"},
		{"army.mil", "gov"},
		{"foo.io", "other"},
		{"COM", "com"}, // case-insensitive
	}
	for _, c := range cases {
		if got := DomainOf(c.in); got != c.want {
			t.Errorf("DomainOf(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestProjectSites(t *testing.T) {
	g := New()
	g.AddLink("http://a.com/1", "http://a.com/2") // intra: excluded
	g.AddLink("http://a.com/1", "http://b.edu/")
	g.AddLink("http://b.edu/x", "http://c.gov/")
	sg := ProjectSites(g)
	if len(sg.Sites) != 3 {
		t.Fatalf("sites = %v", sg.Sites)
	}
	ai := sg.Index["a.com"]
	bi := sg.Index["b.edu"]
	ci := sg.Index["c.gov"]
	if len(sg.Out[ai]) != 1 || sg.Out[ai][0] != int32(bi) {
		t.Fatalf("a.com out = %v", sg.Out[ai])
	}
	if len(sg.Out[bi]) != 1 || sg.Out[bi][0] != int32(ci) {
		t.Fatalf("b.edu out = %v", sg.Out[bi])
	}
	if len(sg.Out[ci]) != 0 {
		t.Fatalf("c.gov out = %v", sg.Out[ci])
	}
}

func TestGraphInvariantProperty(t *testing.T) {
	// Random link insertions/removals keep in/out edge sets mirror images.
	type op struct{ From, To uint8 }
	if err := quick.Check(func(ops []op) bool {
		g := New()
		name := func(b uint8) string { return fmt.Sprintf("n%d", b%16) }
		for i, o := range ops {
			switch i % 3 {
			case 0, 1:
				g.AddLink(name(o.From), name(o.To))
			case 2:
				g.RemovePage(name(o.From))
			}
		}
		return g.Validate() == nil
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPagesSorted(t *testing.T) {
	g := New()
	for _, p := range []string{"c", "a", "b"} {
		g.AddPage(p)
	}
	got := g.Pages()
	if fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("Pages() = %v", got)
	}
}

// TestSetLinksMatchesModel runs random SetLinks/AddLink/RemovePage
// sequences against a model (node set and edge set) and compares the
// graph with one rebuilt from the model from scratch after every step:
// the same pages, out-sets and in-sets, and Validate passing.
// Link lists run from empty to 35 links, repeats included.
func TestSetLinksMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	name := func() PageID { return fmt.Sprintf("n%02d", rng.Intn(40)) }
	g := New()
	nodes := map[PageID]bool{}
	edges := map[[2]PageID]bool{}
	for step := 0; step < 1500; step++ {
		from := name()
		switch k := rng.Intn(10); {
		case k < 7:
			tos := make([]PageID, rng.Intn(36))
			for i := range tos {
				tos[i] = name()
			}
			for e := range edges {
				if e[0] == from {
					delete(edges, e)
				}
			}
			nodes[from] = true
			for _, to := range tos {
				nodes[to] = true
				edges[[2]PageID{from, to}] = true
			}
			g.SetLinks(from, tos)
		case k < 9:
			to := name()
			nodes[from], nodes[to] = true, true
			edges[[2]PageID{from, to}] = true
			g.AddLink(from, to)
		default:
			delete(nodes, from)
			for e := range edges {
				if e[0] == from || e[1] == from {
					delete(edges, e)
				}
			}
			g.RemovePage(from)
		}
		ref := New()
		for n := range nodes {
			ref.AddPage(n)
		}
		for e := range edges {
			ref.AddLink(e[0], e[1])
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !slices.Equal(g.Pages(), ref.Pages()) {
			t.Fatalf("step %d: pages %v, rebuilt %v", step, g.Pages(), ref.Pages())
		}
		for _, p := range ref.Pages() {
			if !slices.Equal(g.OutLinks(p), ref.OutLinks(p)) || !slices.Equal(g.InLinks(p), ref.InLinks(p)) {
				t.Fatalf("step %d: %s out %v in %v, rebuilt out %v in %v", step, p,
					g.OutLinks(p), g.InLinks(p), ref.OutLinks(p), ref.InLinks(p))
			}
		}
	}
}

// BenchmarkSetLinks re-links a 12-link page whose list alternates
// between two versions that differ in 0, 1 or all 12 links.
func BenchmarkSetLinks(b *testing.B) {
	for _, changed := range []int{0, 1, 12} {
		b.Run(fmt.Sprintf("changed=%d", changed), func(b *testing.B) {
			var lists [2][]PageID
			for i := 0; i < 12; i++ {
				lists[0] = append(lists[0], fmt.Sprintf("http://site%d.com/page%d", i%3, i))
				to := lists[0][i]
				if i < changed {
					to = fmt.Sprintf("http://site%d.com/other%d", i%3, i)
				}
				lists[1] = append(lists[1], to)
			}
			g := New()
			g.SetLinks("http://site0.com/", lists[1])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.SetLinks("http://site0.com/", lists[i%2])
			}
		})
	}
}
