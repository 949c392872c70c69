package core

import (
	"math"
	"slices"
	"testing"

	"webevolve/internal/cluster"
	"webevolve/internal/frontier"
)

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

// recordingFrontier is an in-process frontier that records the removes
// and pushes every round ships.
type recordingFrontier struct {
	*frontier.Sharded
	removes []string
	pushes  []frontier.Entry
}

func (r *recordingFrontier) ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) ([]frontier.Entry, frontier.Entry, bool, bool) {
	r.removes = append(r.removes, removes...)
	r.pushes = append(r.pushes, pushes...)
	return r.Sharded.ApplyRound(pops, removes, pushes, peekMax)
}

// settledCrawl runs a crawl with the given collection size to day 30,
// so a test can drive one refinement by hand and read exactly what it
// shipped. The collection must be full, or refine would fill free
// slots before it replaces anything.
func settledCrawl(t *testing.T, size int) (*Crawler, *recordingFrontier) {
	t.Helper()
	w, f := testWeb(t, 50)
	rf := &recordingFrontier{Sharded: frontier.NewSharded(4)}
	cfg := baseConfig(w)
	cfg.CollectionSize = size
	cfg.Frontier = rf
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	// RunUntil returns settled: content landed, rounds flushed, no
	// rebuild in flight.
	if err := c.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	if n := c.coll.Len(); n != size {
		t.Fatalf("collection holds %d pages, want a full %d", n, size)
	}
	rf.removes, rf.pushes = nil, nil
	return c, rf
}

// refineRanks scores every collection member memberImp and every other
// page of the graph candImp. It returns the ranks, the members in URL
// order and the candidates in the order refine scans them.
func refineRanks(c *Crawler, memberImp, candImp float64) (ranks map[string]float64, members, cands []string) {
	ranks = make(map[string]float64)
	members = c.coll.URLs()
	slices.Sort(members)
	for _, u := range members {
		ranks[u] = memberImp
	}
	for _, u := range c.graph.Pages() {
		if _, ok := ranks[u]; !ok {
			ranks[u] = candImp
			cands = append(cands, u)
		}
	}
	return ranks, members, cands
}

// refineWith makes ranks the last ranking pass's scores and runs the
// refinement over the collection and the graph as they stand.
func refineWith(c *Crawler, ranks map[string]float64) error {
	c.ranks = make([]float64, c.ids.Len())
	for u, r := range ranks {
		id, _ := c.ids.Lookup(u)
		c.ranks[id] = r
	}
	urls, ids := c.listCollection()
	return c.refine(urls, ids, c.graph.Snapshot().URLIDs)
}

// TestRefineNeedsAStrictlyMoreImportantCandidate: a candidate replaces
// a collection member only when its importance is strictly higher. A
// tie evicts nothing, and the next float up is enough.
func TestRefineNeedsAStrictlyMoreImportantCandidate(t *testing.T) {
	c, rf := settledCrawl(t, 15)
	before := c.Metrics()
	ranks, _, _ := refineRanks(c, 1, 1)
	if err := refineWith(c, ranks); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Evictions != before.Evictions || m.Admissions != before.Admissions {
		t.Fatalf("a tie moved the collection: %d evictions, %d admissions", m.Evictions-before.Evictions, m.Admissions-before.Admissions)
	}
	if len(rf.removes)+len(rf.pushes) != 0 {
		t.Fatalf("a tie shipped removes %v and pushes %v", rf.removes, rf.pushes)
	}

	up := math.Nextafter(1, 2)
	ranks, _, _ = refineRanks(c, 1, up)
	if err := refineWith(c, ranks); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Evictions - before.Evictions; got != 1 {
		t.Fatalf("%d evictions for a candidate one ulp better, want 1", got)
	}
	if len(rf.removes) != 1 || isSeed(c.cfg.Seeds, rf.removes[0]) {
		t.Fatalf("removes %v: want one non-seed member", rf.removes)
	}
	if len(rf.pushes) != 1 || rf.pushes[0].Priority != up || rf.pushes[0].Due != c.Day() {
		t.Fatalf("pushes %+v: want one admission due now at importance %v", rf.pushes, up)
	}
}

// TestRefineReplacesAtMostOneTwentiethPerPass: one pass replaces at
// most len(collection)/20+1 members, the least important non-seed
// members first and the best candidates first, ties broken by URL.
func TestRefineReplacesAtMostOneTwentiethPerPass(t *testing.T) {
	c, rf := settledCrawl(t, 40)
	ranks, members, cands := refineRanks(c, 1, 2)
	k := len(members)/20 + 1
	if len(cands) <= k {
		t.Fatalf("%d candidates: the test needs more than %d", len(cands), k)
	}
	if err := refineWith(c, ranks); err != nil {
		t.Fatal(err)
	}
	var wantEvicted []string
	for _, u := range members {
		if len(wantEvicted) < k && !isSeed(c.cfg.Seeds, u) {
			wantEvicted = append(wantEvicted, u)
		}
	}
	if !slices.Equal(rf.removes, wantEvicted) {
		t.Fatalf("evicted %v, want %v", rf.removes, wantEvicted)
	}
	var admitted []string
	for _, e := range rf.pushes {
		admitted = append(admitted, e.URL)
	}
	if !slices.Equal(admitted, cands[:k]) {
		t.Fatalf("admitted %v, want %v", admitted, cands[:k])
	}
}

// TestRefineConsidersFourCandidatesPerSlot: the candidate scan stops at
// four candidates per collection slot, so the best discovered URL is
// admitted when it lies inside that window and passed over when it
// lies just past it.
func TestRefineConsidersFourCandidatesPerSlot(t *testing.T) {
	const size = 15
	for _, tc := range []struct {
		name  string
		at    int // scan position of the best candidate
		admit bool
	}{
		{"inside", 4*size - 1, true},
		{"outside", 4 * size, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, rf := settledCrawl(t, size)
			ranks, _, cands := refineRanks(c, 1, 2)
			if len(cands) <= 4*size {
				t.Fatalf("%d candidates: the test needs more than %d", len(cands), 4*size)
			}
			best := cands[tc.at]
			ranks[best] = 3
			if err := refineWith(c, ranks); err != nil {
				t.Fatal(err)
			}
			want := cands[0] // the first in scan order among the ties
			if tc.admit {
				want = best
			}
			if len(rf.pushes) != 1 || rf.pushes[0].URL != want {
				t.Fatalf("admitted %+v, want %s", rf.pushes, want)
			}
		})
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

// listingFrontier is an in-process frontier that counts the crawl's
// listings and length queries: against shard servers each is a
// fan-out to every server.
type listingFrontier struct {
	*frontier.Sharded
	urls, lens int
}

func (l *listingFrontier) URLs() []string { l.urls++; return l.Sharded.URLs() }

func (l *listingFrontier) Len() int { l.lens++; return l.Sharded.Len() }

// TestRankingPassListsTheFrontierOnce: under the variable-frequency
// plan a ranking pass lists the frontier once, for the plan's rate
// snapshot and the refinement both, and never asks for its length.
func TestRankingPassListsTheFrontierOnce(t *testing.T) {
	w, f := testWeb(t, 50)
	lf := &listingFrontier{Sharded: frontier.NewSharded(4)}
	cfg := baseConfig(w)
	cfg.Freq = VariableFreq
	cfg.Frontier = lf
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	passes := c.Metrics().RankPasses
	if passes < 10 || c.optimal.PlanSize() == 0 {
		t.Fatalf("%d passes, plan of %d pages: the test exercises no plan", passes, c.optimal.PlanSize())
	}
	if lf.urls != int(passes) || lf.lens != 0 {
		t.Fatalf("%d passes listed the frontier %d times and asked its length %d times, want once each and never",
			passes, lf.urls, lf.lens)
	}
}

// TestAllUrlsStartsAsTheSeeds: before anything is fetched, the crawl's
// AllUrls holds exactly the seeds, under IDs 0, 1, … in seed order, and
// the graph holds no node: every later ID is minted as content lands.
func TestAllUrlsStartsAsTheSeeds(t *testing.T) {
	w, f := testWeb(t, 53)
	cfg := baseConfig(w)
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	all := c.AllUrls()
	if all.Len() != len(cfg.Seeds) {
		t.Fatalf("AllUrls holds %d URLs, want the %d seeds", all.Len(), len(cfg.Seeds))
	}
	for i, s := range cfg.Seeds {
		if id, ok := all.Lookup(s); !ok || id != int32(i) {
			t.Fatalf("seed %d %s: ID %d (found %v)", i, s, id, ok)
		}
	}
	if n := c.Graph().NumPages(); n != 0 {
		t.Fatalf("the graph holds %d pages before any fetch", n)
	}
}

// TestOneURLIDSpace: the crawl's URL table, the paper's AllUrls, is
// the one ID space. The seeds hold its first IDs, in seed order; every
// graph node is in it under its graph ID; and the engine resolves every
// URL to its ID there, minting none.
func TestOneURLIDSpace(t *testing.T) {
	w, f := testWeb(t, 51)
	cfg := baseConfig(w)
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	all := c.AllUrls()
	for i, s := range cfg.Seeds {
		if u := all.URL(int32(i)); u != s {
			t.Fatalf("ID %d is %s, want seed %d %s", i, u, i, s)
		}
	}
	snap := c.graph.Snapshot()
	for i, gid := range snap.URLIDs {
		if id, ok := all.Lookup(snap.URL(i)); !ok || id != gid {
			t.Fatalf("%s: graph ID %d, table ID %d (found %v)", snap.URL(i), gid, id, ok)
		}
	}
	n, crawled := all.Len(), 0
	for id := int32(0); id < int32(n); id++ {
		if eid := c.intern(all.URL(id)); eid != id {
			t.Fatalf("%s: table ID %d, engine ID %d", all.URL(id), id, eid)
		}
		if c.pages[id] != nil {
			crawled++
		}
	}
	if len(snap.URLIDs) == 0 || crawled == 0 || all.Len() != n {
		t.Fatalf("%d URLs (%d after the engine's lookups), %d graph nodes, %d crawled pages",
			n, all.Len(), len(snap.URLIDs), crawled)
	}
}
