package pagerank

import (
	"math"
	"testing"

	"webevolve/internal/webgraph"
)

func TestTwoNodeClosedForm(t *testing.T) {
	// a <-> b with damping d: symmetric, so PR(a) = PR(b); the fixed
	// point of v = d + (1-d)*v is v = 1 for any d.
	g := webgraph.New()
	g.AddLink("a", "b")
	g.AddLink("b", "a")
	ranks, res, err := Pages(g.Snapshot(), Options{Damping: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(ranks["a"]-1) > 1e-6 || math.Abs(ranks["b"]-1) > 1e-6 {
		t.Fatalf("ranks %v, want 1", ranks)
	}
}

func TestPaperFormulaFixedPoint(t *testing.T) {
	// Star graph: hub pointed to by n leaves, each leaf with out-degree 1.
	// Leaves get PR = d (nothing points at them); hub gets
	// d + (1-d)*n*d. Verify against the iterative solve.
	g := webgraph.New()
	leaves := []string{"l1", "l2", "l3", "l4"}
	for _, l := range leaves {
		g.AddLink(l, "hub")
	}
	const d = 0.9
	ranks, _, err := Pages(g.Snapshot(), Options{Damping: d})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		if math.Abs(ranks[l]-d) > 1e-6 {
			t.Fatalf("leaf rank %v, want %v", ranks[l], d)
		}
	}
	wantHub := d + (1-d)*4*d
	if math.Abs(ranks["hub"]-wantHub) > 1e-6 {
		t.Fatalf("hub rank %v, want %v", ranks["hub"], wantHub)
	}
}

func TestMorePopularRanksHigher(t *testing.T) {
	g := webgraph.New()
	// "popular" has 3 in-links, "niche" has 1.
	g.AddLink("x", "popular")
	g.AddLink("y", "popular")
	g.AddLink("z", "popular")
	g.AddLink("x", "niche")
	ranks, _, err := Pages(g.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ranks["popular"] <= ranks["niche"] {
		t.Fatalf("popular %v <= niche %v", ranks["popular"], ranks["niche"])
	}
}

func TestDanglingNodesHandled(t *testing.T) {
	g := webgraph.New()
	g.AddLink("a", "sink") // sink has no out-links
	ranks, res, err := Pages(g.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge with dangling node")
	}
	for n, r := range ranks {
		if math.IsNaN(r) || r <= 0 {
			t.Fatalf("node %s rank %v", n, r)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := webgraph.New()
	ranks, res, err := Pages(g.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 0 || !res.Converged {
		t.Fatalf("empty graph: ranks=%v res=%+v", ranks, res)
	}
}

func TestOptionsValidation(t *testing.T) {
	for _, o := range []Options{
		{Damping: -0.5},
		{Damping: 1.5},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
}

func TestSitesRanking(t *testing.T) {
	g := webgraph.New()
	// Two sites pointing at one popular site.
	g.AddLink("http://a.com/1", "http://hub.com/")
	g.AddLink("http://b.edu/1", "http://hub.com/")
	g.AddLink("http://hub.com/1", "http://a.com/")
	sg := webgraph.ProjectSites(g)
	ranks, _, err := Sites(sg, Options{Damping: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if ranks["hub.com"] <= ranks["b.edu"] {
		t.Fatalf("hub %v <= b.edu %v", ranks["hub.com"], ranks["b.edu"])
	}
}

func TestTopK(t *testing.T) {
	scores := map[string]float64{"a": 1, "b": 3, "c": 2, "d": 3}
	top := TopK(scores, 3)
	if len(top) != 3 {
		t.Fatalf("len %d", len(top))
	}
	// Ties broken by ID: b before d.
	if top[0].ID != "b" || top[1].ID != "d" || top[2].ID != "c" {
		t.Fatalf("order %v", top)
	}
	if all := TopK(scores, 10); len(all) != 4 {
		t.Fatalf("overlong k yields %d", len(all))
	}
}

func TestConvergenceIterationsReported(t *testing.T) {
	g := webgraph.New()
	g.AddLink("a", "b")
	g.AddLink("a", "c")
	g.AddLink("b", "c")
	g.AddLink("c", "a")
	_, res, err := Pages(g.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("iterations %d", res.Iterations)
	}
}

func TestMaxIterStopsUnconverged(t *testing.T) {
	g := webgraph.New()
	// A two-periodic graph whose values start off its fixed point: at a
	// damping near 0 the oscillation shrinks by (1-d) a sweep, so it is
	// still far above tolerance when the sweeps run out.
	g.AddLink("a", "b")
	g.AddLink("a", "c")
	g.AddLink("b", "a")
	g.AddLink("c", "a")
	_, res, err := Pages(g.Snapshot(), Options{Damping: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("unconverged solve reported as converged")
	}
	if res.Iterations != maxIter {
		t.Fatalf("iterations %d, want %d", res.Iterations, maxIter)
	}
}
