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
// over the captured link structure, refresh the crawled pages' scores,
// rebuild the variable-frequency plan, and make the refinement
// decision — admit important new pages (at the front of CollUrls, so
// they are crawled immediately) and discard the least important pages
// to keep the collection at its target size.
//
// The paper stresses that this pass is expensive (PageRank scans the
// whole collection) and therefore must run on its own cadence, decoupled
// from the UpdateModule's per-page work; here that cadence is
// Config.RankEveryDays.
func (c *Crawler) rankingPass() error {
	// The pass reads and rewrites what rounds in flight also touch —
	// the frontier, the graph, the collection: settle them.
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
	res, err := pagerank.Rows(snap, pagerank.Options{Damping: 0.9})
	if err != nil {
		return err
	}
	// A URL the graph does not hold ranks 0, like an ID minted after
	// this pass (rank).
	c.ranks = append(c.ranks[:0], make([]float64, c.ids.Len())...)
	for i, id := range snap.URLIDs {
		c.ranks[id] = res.Score[i]
	}
	for id, p := range c.pages {
		if p != nil {
			p.importance = c.rank(int32(id))
		}
	}

	// The pass's one listing of the collection: the plan's rate snapshot
	// and the refinement both read it, and nothing commits between them.
	// URLs arrive sorted, so the sort inside Rebuild is one pass.
	urls, ids := c.listCollection()
	if c.optimal != nil && len(urls) > 0 {
		pages := make([]scheduler.PageRate, len(urls))
		prior := 1 / (4 * c.cfg.CycleDays) // the paper's ~4-month mean
		for i, u := range urls {
			r := prior
			if p := c.pages[ids[i]]; p != nil {
				if er := p.est.rate(); er > 0 {
					r = er
				}
			}
			pages[i] = scheduler.PageRate{ID: ids[i], URL: u, Rate: r}
		}
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

	return c.refine(urls, ids, snap.URLIDs)
}

// listCollection lists the collection's URLs, sorted, with their IDs.
func (c *Crawler) listCollection() ([]string, []int32) {
	urls := c.coll.URLs()
	ids := make([]int32, len(urls))
	for i, u := range urls {
		ids[i] = c.intern(u)
	}
	return urls, ids
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
// urls is the collection as the pass listed it, ids their IDs, and
// ranked the IDs of the pass's graph nodes in URL order, whose scores
// c.ranks holds.
func (c *Crawler) refine(urls []string, ids, ranked []int32) error {
	// admit and evict only stage their frontier changes; the refinement
	// ships as one round once decided — one exchange per server and one
	// WAL append, not one of each per URL. Admissions come from outside
	// the collection and evictions from inside, so the two sets are
	// disjoint and the final queue does not depend on their order.
	defer func() {
		c.rounds.Commit(c.evicts, c.admits, false)
		c.admits, c.evicts = c.admits[:0], c.evicts[:0]
	}()
	// The pass is quiesced, so every ID it holds is below the table's
	// length now.
	inColl := make([]bool, c.ids.Len())
	for _, id := range ids {
		inColl[id] = true
	}

	// Candidates: ranked pages not in the collection, best first.
	// Never-crawled pages are graph nodes via their in-links (footnote
	// 2), so the same PageRank solve scores them; a discovered page that
	// nothing links to any more, such as one that vanished, is no node
	// and no candidate until a link to it returns. The scan stops at
	// four candidates per collection slot, which bounds the pass's sort
	// on a large graph.
	type cand struct {
		url string
		imp float64
	}
	var cands []cand
	for _, id := range ranked {
		if inColl[id] {
			continue
		}
		cands = append(cands, cand{url: c.ids.URL(id), imp: c.rank(id)})
		if len(cands) >= 4*c.cfg.CollectionSize {
			break
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].imp != cands[j].imp {
			return cands[i].imp > cands[j].imp
		}
		return cands[i].url < cands[j].url
	})

	// Fill free slots first.
	free := c.cfg.CollectionSize - len(urls)
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
		id  int32
		imp float64
	}
	members := make([]member, len(urls))
	for i, u := range urls {
		members[i] = member{url: u, id: ids[i], imp: c.rank(ids[i])}
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
		if err := c.evict(mb.url, mb.id); err != nil {
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

// evict discards a page, whose ID is id, from the collection (Figure 11
// steps [7]-[8]). The frontier removal is staged in c.evicts for refine
// to commit.
func (c *Crawler) evict(url string, id int32) error {
	c.metrics.Evictions++
	c.evicts = append(c.evicts, url)
	if err := c.deletePage(url); err != nil {
		return err
	}
	c.pages[id] = nil
	// The page stays in the graph and the URL table, so it may be
	// re-admitted later.
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
