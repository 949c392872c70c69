package core

import (
	"testing"

	"webevolve/internal/cluster"
	"webevolve/internal/frontier"
)

func TestHysteresisPreventsThrash(t *testing.T) {
	// With a huge hysteresis margin, replacements should be rare even
	// under a tiny collection; with zero hysteresis they happen freely.
	evictions := func(h float64) int64 {
		w, f := testWeb(t, 50)
		cfg := baseConfig(w)
		cfg.CollectionSize = 15
		cfg.EvictionHysteresis = h
		c, err := New(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntil(30); err != nil {
			t.Fatal(err)
		}
		return c.Metrics().Evictions
	}
	loose := evictions(0)
	tight := evictions(10) // candidate must be 11x better
	if tight >= loose {
		t.Fatalf("hysteresis did not damp evictions: %d (tight) vs %d (loose)", tight, loose)
	}
}

// TestRefinementShipsAsRounds: New queues the seeds as one round, and
// the ranking passes' admissions and evictions reach the frontier only
// inside round commits — never as a per-entry push, remove or pop.
func TestRefinementShipsAsRounds(t *testing.T) {
	w, f := testWeb(t, 50)
	servers := []*cluster.ShardServer{
		cluster.NewShardServer(frontier.NewSharded(4)),
		cluster.NewShardServer(frontier.NewSharded(4)),
	}
	rs, err := cluster.Loopback(servers, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	cr := &countingRounds{RemoteShards: rs}
	cfg := baseConfig(w)
	cfg.CollectionSize = 15
	cfg.Frontier = cr
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if n := cr.Len(); n != len(cfg.Seeds) {
		t.Fatalf("New queued %d of %d seeds", n, len(cfg.Seeds))
	}
	if err := c.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Evictions == 0 || m.Admissions <= int64(len(cfg.Seeds)) {
		t.Fatalf("%d admissions, %d evictions: the test exercises no refinement", m.Admissions, m.Evictions)
	}
	if cr.perEntry != 0 {
		t.Fatalf("%d per-entry frontier calls beside the rounds", cr.perEntry)
	}
}

func TestMaxCandidatesBoundsRankingWork(t *testing.T) {
	w, f := testWeb(t, 51)
	cfg := baseConfig(w)
	cfg.MaxCandidates = 5
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	// The crawl still makes progress despite the tiny candidate window.
	if c.Collection().Len() == 0 {
		t.Fatal("no pages collected with bounded candidates")
	}
}

func TestImportancePropagatesToAllUrls(t *testing.T) {
	w, f := testWeb(t, 52)
	c, err := New(baseConfig(w), f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(8); err != nil {
		t.Fatal(err)
	}
	// Crawled seeds must carry a PageRank-derived importance in their
	// stored records, the value serve's X-Webevolve-Importance reads.
	seen := 0
	for _, s := range w.RootURLs() {
		rec, ok, err := c.Collection().Get(s)
		if err != nil {
			t.Fatal(err)
		}
		if ok && rec.Importance > 0 {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no seed received an importance score")
	}
}

func TestAdmittedPagesCrawledImmediately(t *testing.T) {
	// "The URL for this new page is placed on the top of CollUrls, so
	// that the UpdateModule can crawl the page immediately": after a
	// ranking pass admits pages, their due time must be at or before the
	// current day.
	w, f := testWeb(t, 53)
	cfg := baseConfig(w)
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	// Run a hair past the first ranking pass (which happens at day 0).
	if err := c.RunUntil(0.01); err != nil {
		t.Fatal(err)
	}
	head, _, _, _ := c.CollUrls().ApplyRound(nil, nil, nil, 1)
	if len(head) > 0 && head[0].Due > c.Day() {
		t.Fatalf("admitted page scheduled at %v, now %v", head[0].Due, c.Day())
	}
	if c.Metrics().Admissions == 0 {
		t.Fatal("first ranking pass admitted nothing")
	}
}

func TestPeriodicPartialCycleAtHorizon(t *testing.T) {
	// Stopping mid-cycle must not wedge or overshoot badly.
	w, f := testWeb(t, 54)
	cfg := baseConfig(w)
	p, err := NewPeriodic(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunUntil(0.5); err != nil { // far inside the first batch
		t.Fatal(err)
	}
	if p.Day() < 0.5 {
		t.Fatalf("day %v did not reach horizon", p.Day())
	}
	if p.Day() > cfg.CycleDays+cfg.BatchDays {
		t.Fatalf("day %v overshot a full cycle", p.Day())
	}
}

func TestRunUntilIdempotentAtHorizon(t *testing.T) {
	w, f := testWeb(t, 55)
	c, err := New(baseConfig(w), f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	day := c.Day()
	fetches := c.Metrics().Fetches
	// Running to the same (or earlier) horizon is a no-op.
	if err := c.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if c.Day() != day || c.Metrics().Fetches != fetches {
		t.Fatal("re-running to a past horizon did work")
	}
}
