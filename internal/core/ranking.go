package core

import (
	"sort"
	"time"

	"webevolve/internal/frontier"
	"webevolve/internal/obs"
	"webevolve/internal/pagerank"
	"webevolve/internal/scheduler"
)

// rankingPass is the RankingModule of Figure 12: recompute importance
// over the captured link structure, refresh AllUrls scores, rebuild the
// variable-frequency plan, and make the refinement decision — admit
// important new pages (at the front of CollUrls, so they are crawled
// immediately) and discard the least important pages to keep the
// collection at its target size.
//
// The paper stresses that this pass is expensive (PageRank scans the
// whole collection) and therefore must run on its own cadence, decoupled
// from the UpdateModule's per-page work; here that cadence is
// Config.RankEveryDays.
func (c *Crawler) rankingPass() error {
	// The pass reads and rewrites what rounds in flight also touch —
	// the frontier, AllUrls, the graph, the collection: settle them.
	if err := c.quiesce(); err != nil {
		return err
	}
	// A still-running rebuild from the previous pass reads from the
	// same plan this pass snapshots and replaces; settle it first.
	if err := c.joinRebuild(); err != nil {
		return err
	}
	c.metrics.RankPasses++
	snap := c.graph.Snapshot()
	ranks, _, err := pagerank.Pages(snap, pagerank.Options{Damping: 0.9})
	if err != nil {
		return err
	}
	c.ranks = ranks
	for id, p := range c.pages {
		if p != nil {
			p.importance = ranks[c.ids.URL(int32(id))]
		}
	}

	if c.optimal != nil {
		// URLs arrive sorted, so the sort inside Rebuild is one pass.
		urls := c.coll.URLs()
		pages := make([]scheduler.PageRate, len(urls))
		prior := 1 / (4 * c.cfg.CycleDays) // the paper's ~4-month mean
		for i, u := range urls {
			id := c.intern(u)
			r := prior
			if p := c.pages[id]; p != nil {
				if er := p.est.rate(); er > 0 {
					r = er
				}
			}
			pages[i] = scheduler.PageRate{ID: id, URL: u, Rate: r}
		}
		if len(pages) > 0 {
			// The rebuild (a Lagrange-multiplier search) runs concurrently
			// with the post-rank rounds' fetches: nothing between here and
			// the next applySchedule reads the revisit plan — the paper's
			// point exactly, the UpdateModule never waits for the
			// RankingModule. joinRebuild synchronizes before the plan is
			// first consulted, and the result is a pure function of the
			// rates snapshot taken above, so timing cannot change it.
			done := make(chan error, 1)
			c.rebuildDone = done
			go func() {
				start := time.Now()
				err := c.optimal.Rebuild(pages)
				engineRankRebuild.Observe(time.Since(start).Seconds())
				obs.DefaultTrace.Span("rank_rebuild", 0, len(pages), start)
				done <- err
			}()
		}
	}

	return c.refine(ranks)
}

// joinRebuild waits out any in-flight revisit-plan rebuild. It must be
// called before anything reads the Optimal plan (policy.Interval in
// applySchedule, the next pass's rate snapshot) and before the
// crawler returns to its caller.
func (c *Crawler) joinRebuild() error {
	if c.rebuildDone == nil {
		return nil
	}
	start := time.Now()
	err := <-c.rebuildDone
	phaseRebuildWait.Observe(time.Since(start).Seconds())
	c.rebuildDone = nil
	return err
}

// refine implements the refinement decision (Section 5.2): replace
// less-important collection pages with more-important discovered pages.
func (c *Crawler) refine(ranks map[string]float64) error {
	// admit and evict only stage their frontier changes; the refinement
	// ships as one round once decided — one exchange per server and one
	// WAL append, not one of each per URL. Admissions come from outside
	// the collection and evictions from inside, so the two sets are
	// disjoint and the final queue does not depend on their order.
	defer func() {
		c.rounds.Commit(c.evicts, c.admits, false)
		c.admits, c.evicts = c.admits[:0], c.evicts[:0]
	}()
	inColl := make(map[string]bool, c.coll.Len())
	for _, u := range c.coll.URLs() {
		inColl[u] = true
	}

	// Candidates: discovered URLs not in the collection, best first.
	// Importance for never-crawled pages comes from the same PageRank
	// solve — they are graph nodes via their in-links (footnote 2). The
	// scan stops at four candidates per collection slot, which bounds
	// the pass's sort on a large AllUrls.
	type cand struct {
		url string
		imp float64
	}
	var cands []cand
	c.all.Scan(func(info frontier.URLInfo) bool {
		if inColl[info.URL] {
			return true
		}
		imp := ranks[info.URL]
		if imp == 0 {
			// Unranked discovery: score by in-link count so fresh URLs
			// can still enter a non-full collection.
			imp = 0.1 * float64(info.InLinks)
		}
		cands = append(cands, cand{url: info.URL, imp: imp})
		return len(cands) < 4*c.cfg.CollectionSize
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].imp != cands[j].imp {
			return cands[i].imp > cands[j].imp
		}
		return cands[i].url < cands[j].url
	})

	// Fill free slots first.
	free := c.cfg.CollectionSize - len(inColl)
	idx := 0
	for free > 0 && idx < len(cands) {
		c.admit(cands[idx].url, cands[idx].imp)
		idx++
		free--
	}
	if idx >= len(cands) {
		return nil
	}

	// Replacement: worst collection members vs best remaining candidates.
	type member struct {
		url string
		imp float64
	}
	members := make([]member, 0, len(inColl))
	for u := range inColl {
		members = append(members, member{url: u, imp: ranks[u]})
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].imp != members[j].imp {
			return members[i].imp < members[j].imp
		}
		return members[i].url < members[j].url
	})
	maxReplace := len(members)/20 + 1 // refine gradually; avoids thrash
	replaced := 0
	mi := 0
	for idx < len(cands) && mi < len(members) && replaced < maxReplace {
		cd, mb := cands[idx], members[mi]
		if isSeed(c.cfg.Seeds, mb.url) {
			mi++ // never evict seeds; they anchor discovery
			continue
		}
		if cd.imp <= mb.imp {
			break // best candidate cannot beat the worst member
		}
		if err := c.evict(mb.url); err != nil {
			return err
		}
		c.admit(cd.url, cd.imp)
		idx++
		mi++
		replaced++
	}
	return nil
}

// admit schedules url for immediate crawling as a (future) collection
// member: "the URL for this new page is placed on the top of CollUrls, so
// that the UpdateModule can crawl the page immediately". The push is
// staged in c.admits for the caller to commit.
func (c *Crawler) admit(url string, imp float64) {
	c.metrics.Admissions++
	c.admits = append(c.admits, frontier.Entry{URL: url, Due: c.day, Priority: imp}) // due now = front of the queue
}

// evict discards a page from the collection (Figure 11 steps [7]-[8]).
// The frontier removal is staged in c.evicts for refine to commit.
func (c *Crawler) evict(url string) error {
	c.metrics.Evictions++
	c.evicts = append(c.evicts, url)
	if err := c.deletePage(url); err != nil {
		return err
	}
	if id, ok := c.ids.Lookup(url); ok {
		c.pages[id] = nil
	}
	// The page's link structure stays in the graph: AllUrls remembers
	// everything discovered, and the page may be re-admitted later.
	return nil
}

func isSeed(seeds []string, url string) bool {
	for _, s := range seeds {
		if s == url {
			return true
		}
	}
	return false
}
