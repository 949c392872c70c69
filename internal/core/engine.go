package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"webevolve/internal/changefreq"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/obs"
	"webevolve/internal/scheduler"
	"webevolve/internal/store"
	"webevolve/internal/webgraph"
)

// This file is the concurrent dispatch core of the crawl engine: a
// pipeline over the unified dispatcher (dispatch.go). The UpdateModule
// pops *rounds* of due URLs from the sharded frontier, hands them to
// the worker pool grouped per site, and folds the results back in pop
// order — and while round N's results are being folded in, rounds N+1
// and N+2 are already popped and fetching on the same workers, so
// fetch latency, per-URL estimator math, and apply CPU overlap instead
// of serializing.
//
// Determinism is preserved by construction, so the simulated
// experiments are reproducible at any worker count:
//
//   - popSteadyRound assigns each job its virtual fetch day while
//     popping in global (due, priority, URL) order — exactly the
//     schedule the sequential loop would have produced. Popping ahead
//     of unapplied rounds is safe inside the reschedule window: a
//     round rescheduling a URL pushes it at least MinIntervalDays of
//     virtual time past its fetch day, so as long as no job is popped
//     at or past oldestUnappliedRoundStart + MinIntervalDays, the
//     pending reschedules can neither be missed (they are not due yet)
//     nor double-taken (their URLs left the frontier when popped). The
//     pipelined pop sequence is therefore the sequential one.
//
//   - dispatchRound groups jobs by site, and the pool runs one site's
//     groups strictly in submission order (dispatch.go's site lines),
//     so all fetches of one site happen in virtual-day order even
//     across overlapping rounds (the simulated web advances per site
//     and requires monotone fetch days within a site). Groups go out
//     largest-first (LPT), so a skewed round with one hot site cannot
//     straggle behind the short groups.
//
//   - The per-URL scheduling math — change detection, change-history
//     recording, and (when the policy reads one) rate estimation — runs
//     on the worker right after its fetch, against state resolved on
//     the engine goroutine at pop time (the job carries its page-state
//     pointer, so workers never touch shared maps). A round's URLs are
//     unique and overlapping rounds never share a URL (the reschedule
//     window again), so every estimator still sees its observations
//     strictly in pop order.
//
//   - What remains of the apply is split in two stages. applySchedule
//     runs on the engine goroutine and folds the round into everything
//     the next pop depends on — metrics, page states, drops,
//     reschedule commits — sequentially in pop order. applyContent
//     (store PutBatch, link extraction into AllUrls, web-graph updates)
//     only feeds the ranking pass and readers of the collection, so it
//     is the pipeline's third stage: one content goroutine (content.go)
//     takes the scheduled rounds in pop order, and round N's store
//     exchange overlaps round N+1's frontier exchange instead of
//     following it.

// crawlJob is one unit of CrawlModule work: a popped frontier entry
// with its assigned virtual fetch day, the scheduling state resolved at
// pop time, and the fetch/scheduling results the worker writes in
// place.
type crawlJob struct {
	idx int // pop position; results are applied in this order
	// e is the entry as popped; e.URL is the job's URL. The reschedule
	// is a copy of it, so the queue slot it names travels back with it.
	e    frontier.Entry
	site string
	day  float64

	// Resolved on the engine goroutine at pop time, so workers never
	// read shared maps. id is the page's ID in the engine's URL table.
	// prevSum and seen are the page state's as of the pop:
	// applySchedule moves the state on while the content stage may
	// still read the job.
	id      int32
	page    *pageState
	prevSum uint64
	seen    bool

	// Written by the worker.
	res     fetch.Result
	changed bool
	rate    float64 // working change-rate estimate; 0 unless the policy reads it
}

// pageState is the engine's per-URL crawl state, found once per fetch
// (resolveJob) and carried by the job, so nothing later in the fetch
// path looks the URL up again. est's fields are fixed when the state is
// made (the workers write only what they point to); sum and seen are
// the engine goroutine's; importance is the last ranking pass's,
// written only while no round is in flight.
type pageState struct {
	est        estimator
	sum        uint64 // last crawled checksum, when seen
	seen       bool   // crawled since the state was made
	importance float64
}

// outcome is applySchedule's per-job verdict, consumed by applyContent.
type outcome struct {
	job     *crawlJob
	dropped bool // vanished page: content phase finishes the drop
}

// roundState is one dispatch round's reusable storage: the jobs in pop
// order, their site grouping, the pool completion handle, and the
// schedule phase's verdicts for the content phase. roundBuffers
// instances rotate through the content stage's free list (content.go).
type roundState struct {
	jobs   []crawlJob
	ptrs   []*crawlJob
	groups []dispatchGroup
	handle *roundHandle
	err    error // pop-time failure (estimator construction)
	// live is applySchedule's output and applyContent's input: the one
	// buffer both phases share, so it travels with the round.
	live []outcome

	// id and dispatchedAt identify the round in the process trace and
	// time its fetch phase; observability only (see metrics.go).
	id           uint64
	dispatchedAt time.Time
}

// roundSeq issues process-unique round IDs for the trace; a global so
// concurrent engines in one process never collide in the shared sink.
var roundSeq atomic.Uint64

func (r *roundState) reset() {
	r.jobs = r.jobs[:0]
	r.ptrs = r.ptrs[:0]
	r.groups = r.groups[:0]
	r.live = r.live[:0]
	r.handle = nil
	r.err = nil
}

// drops reports whether the round drops any page from the collection.
func (r *roundState) drops() bool {
	for _, o := range r.live {
		if o.dropped {
			return true
		}
	}
	return false
}

// fetchJob is the dispatcher's work function: one CrawlModule fetch
// plus the per-URL scheduling math that only depends on this URL's own
// state — change detection against the checksum resolved at pop time,
// the change-history observation and, for a policy that reads it, the
// working-rate estimate. Everything it touches is job-local.
func (c *Crawler) fetchJob(j *crawlJob) error {
	res, err := c.fetcher.Fetch(j.e.URL, j.day)
	if err != nil {
		return fmt.Errorf("core: fetching %s: %w", j.e.URL, err)
	}
	j.res = res
	if res.NotFound {
		return nil
	}
	j.changed = j.seen && j.prevSum != res.Checksum
	est := &j.page.est
	if err := est.record(changefreq.Observation{Time: j.day, Changed: j.changed}); err != nil {
		return fmt.Errorf("core: %s: %w", j.e.URL, err)
	}
	if c.solveRate {
		// On the worker, not at apply time: the solve runs beside the
		// other workers' fetches instead of on the engine goroutine.
		j.rate = est.rate()
	}
	return nil
}

// resolveJob fills a job's pop-time scheduling state, making the page's
// state on its first pop. Interning the URL here is the one URL lookup
// a revisit makes on the engine side: the state, the revisit plan and
// the frontier slot are all found from the job from here on.
func (c *Crawler) resolveJob(j *crawlJob) error {
	j.site = webgraph.SiteOf(j.e.URL)
	j.id = c.intern(j.e.URL)
	p := c.pages[j.id]
	if p == nil {
		est, err := newEstimator(c.cfg.Estimator)
		if err != nil {
			return err
		}
		p = &pageState{est: est, importance: c.ranks[j.e.URL]}
		c.pages[j.id] = p
	}
	j.page, j.prevSum, j.seen = p, p.sum, p.seen
	return nil
}

// intern returns url's ID in the engine's URL table, growing pages for
// a new one.
func (c *Crawler) intern(url string) int32 {
	id, isNew := c.ids.Intern(url)
	if isNew {
		c.pages = append(c.pages, nil)
	}
	return id
}

// popSteadyRound pops the next dispatch round of due URLs for the
// steady-mode loop, stamping each with the virtual day the sequential
// crawler would have fetched it at, and advances virtual time past the
// last fetch. Gaps in the due schedule are idled over inside the round
// (exactly the jumps the sequential loop's idle path would take, with
// the same IdleDays accounting), so sparse trickles of due URLs still
// fill whole rounds and fetch in parallel.
//
// No job is scheduled at or past horizon (the next rank/swap/stop
// event) or past the reschedule window: windowFloor is the first pop
// day of the oldest round whose reschedules have not yet committed
// (+Inf when everything is applied), and no pop may reach
// windowFloor + MinIntervalDays — nor stray more than MinIntervalDays
// past this round's own first job. Within those bounds the pipelined
// pop sequence is exactly the sequential loop's (see the file
// comment).
func (c *Crawler) popSteadyRound(r *roundState, horizon, perFetch, windowFloor float64) {
	r.reset()
	d := c.day
	limit := horizon
	if !math.IsInf(windowFloor, 1) {
		limit = math.Min(limit, windowFloor+c.cfg.MinIntervalDays)
	}
	for len(r.jobs) < c.cfg.DispatchBatch && d < limit {
		e, ok := c.rounds.PopDue(d)
		if !ok {
			// Nothing due at d: jump to the next poppable instant if it
			// is still inside this round's window; otherwise leave the
			// remaining idle time to the steady loop.
			ev, evOK := c.rounds.NextEvent()
			if !evOK || ev >= limit || ev <= d {
				break
			}
			c.metrics.IdleDays += ev - d
			d = ev
			continue
		}
		r.jobs = append(r.jobs, crawlJob{idx: len(r.jobs), e: e, day: d})
		if err := c.resolveJob(&r.jobs[len(r.jobs)-1]); err != nil {
			// Drop the half-resolved job: dispatching it would hand the
			// workers a nil estimator. The error still ends the run via
			// roundState.err.
			r.jobs = r.jobs[:len(r.jobs)-1]
			r.err = err
			break
		}
		if len(r.jobs) == 1 {
			// This round's own reschedules bound how far it may span.
			limit = math.Min(limit, d+c.cfg.MinIntervalDays)
		}
		d += perFetch
	}
	if n := len(r.jobs); n > 0 {
		c.day = r.jobs[n-1].day + perFetch
	}
}

// dispatchRound starts the round's jobs on the worker pool, one group
// per site in pop (and therefore day) order (groupBySite), so the
// pool's per-site lines keep a site's fetches ordered even across
// overlapping rounds.
func (c *Crawler) dispatchRound(r *roundState) {
	for i := range r.jobs {
		r.ptrs = append(r.ptrs, &r.jobs[i])
	}
	r.groups = groupBySite(r.ptrs, r.groups)
	r.handle = c.pool.startRound(r.groups)
}

// pipelineRounds drives the pipeline: popNext fills the next round
// (empty = stop), receiving the first pop day of the oldest round
// whose reschedules are still uncommitted (+Inf when none are). Up to
// depth rounds fetch on the pool while the oldest completed round is
// scheduled; the frontier-facing schedule phase runs as soon as a
// round's fetches land, and the round then goes to the content stage,
// which works through it while the engine commits the next one. It
// reports whether any round was dispatched.
//
// Rounds may still be in the content stage when this returns; callers
// that are about to touch AllUrls, the graph or the collection go
// through quiesce first.
func (c *Crawler) pipelineRounds(depth int, popNext func(r *roundState, windowFloor float64)) (bool, error) {
	st := c.content
	var inflight []*roundState
	var popErr error
	dispatch := func() bool {
		if popErr != nil {
			return false
		}
		floor := math.Inf(1)
		if len(inflight) > 0 {
			floor = inflight[0].jobs[0].day
		}
		r := <-st.free
		popStart := time.Now()
		popNext(r, floor)
		if r.err != nil {
			popErr = r.err
		}
		if len(r.jobs) == 0 {
			st.free <- r
			return false
		}
		r.id = roundSeq.Add(1)
		engineRounds.Inc()
		engineRoundJobs.Observe(float64(len(r.jobs)))
		phasePop.Observe(time.Since(popStart).Seconds())
		obs.DefaultTrace.Span("pop", r.id, len(r.jobs), popStart)
		r.dispatchedAt = time.Now()
		c.dispatchRound(r)
		inflight = append(inflight, r)
		engineInflightRounds.Set(int64(len(inflight)))
		return true
	}
	// abort stops the pool and discards the rounds still fetching, on a
	// fetch, schedule or content error. Rounds already scheduled stay
	// with the content stage, which skips them once it has failed.
	abort := func() {
		handles := make([]*roundHandle, len(inflight))
		for i, r := range inflight {
			handles[i] = r.handle
		}
		c.pool.abort(handles)
	}
	// Prime the pipeline to its depth.
	for i := 0; i < depth && dispatch(); i++ {
	}
	if len(inflight) == 0 {
		return false, popErr
	}
	for len(inflight) > 0 {
		cur := inflight[0]
		err := c.pool.wait(cur.handle)
		phaseFetch.Observe(time.Since(cur.dispatchedAt).Seconds())
		obs.DefaultTrace.Span("fetch", cur.id, len(cur.jobs), cur.dispatchedAt)
		inflight = inflight[1:]
		engineInflightRounds.Set(int64(len(inflight)))
		if err == nil {
			err = c.applySchedule(cur)
		}
		if err == nil {
			// The content stage owns cur from here: its jobs hold the
			// Links and Content the store records alias, so the buffer
			// is free again only when the stage says so.
			err = st.submit(cur)
		}
		if err != nil {
			abort()
			return true, err
		}
		for len(inflight) < depth && dispatch() {
		}
	}
	return true, popErr
}

// applySchedule is the frontier phase of folding a round in (Figure 11
// steps [3]-[12], batched): sequentially in pop order, it counts
// metrics, folds the workers' checksums into the page states, turns
// the revisit policy's intervals into reschedules, and commits
// all frontier mutations (drops and reschedules) — everything the
// next round's pop depends on. Results land in r.live for the content
// phase.
func (c *Crawler) applySchedule(r *roundState) error {
	start := time.Now()
	defer func() {
		phaseApplySchedule.Observe(time.Since(start).Seconds())
		obs.DefaultTrace.Span("apply_schedule", r.id, len(r.jobs), start)
	}()
	// First consumer of the revisit plan after a ranking pass: wait
	// out the plan rebuild that overlapped this round's fetches.
	if err := c.joinRebuild(); err != nil {
		return err
	}
	c.pushes = c.pushes[:0]
	c.removes = c.removes[:0]

	for i := range r.jobs {
		j := &r.jobs[i]
		c.metrics.Fetches++
		c.metrics.BytesFetched += int64(j.res.Size)
		if j.res.NotFound {
			c.metrics.NotFound++
			c.dropSchedule(j)
			r.live = append(r.live, outcome{job: j, dropped: true})
			continue
		}
		if j.changed {
			c.metrics.ChangesDetected++
		}
		if !j.seen {
			c.metrics.NewPages++
		}
		p := j.page
		p.sum, p.seen = j.res.Checksum, true
		interval := c.policy.Interval(j.id, j.rate)
		interval = scheduler.Clamp(interval, c.cfg.MinIntervalDays, c.cfg.MaxIntervalDays)
		e := j.e
		e.Due, e.Priority = j.day+interval, p.importance
		c.pushes = append(c.pushes, e)
		r.live = append(r.live, outcome{job: j})
	}

	// Reschedules commit as one batch with the round's pops and drops
	// (frontier.Rounds): the final frontier state is push-order
	// independent, and a remote frontier pays at most one exchange per
	// server for the round instead of one per URL. While the candidate
	// cache stays exact without them — every reschedule lands past its
	// bound, as a MinIntervalDays-ahead revisit usually does — the
	// commit waits and rides the next exchange, so one exchange serves
	// several rounds. Only the steady loop pops from the frontier, so
	// only it needs the commit to keep pop candidates coming.
	pushStart := time.Now()
	err := c.rounds.Commit(c.removes, c.pushes, c.cfg.Mode != Batch)
	phasePush.Observe(time.Since(pushStart).Seconds())
	obs.DefaultTrace.Span("push", r.id, len(c.pushes), pushStart)
	return err
}

// dropSchedule is the frontier/estimator half of dropping a vanished
// page: everything the next pop or estimator update could observe. The
// store/graph half runs in applyContent.
func (c *Crawler) dropSchedule(j *crawlJob) {
	c.removes = append(c.removes, j.e.URL)
	c.pages[j.id] = nil
}

// applyContent is the heavy phase the content stage runs: store
// writes, link extraction into AllUrls, and web-graph updates for the
// rounds' outcomes, still in pop order. Nothing here is read by popping
// or scheduling, only by the ranking pass, the swap and readers of the
// collection — all behind quiesce — so this phase overlaps the next
// rounds' frontier commits and fetches. It runs on the content
// goroutine: c.recs is that goroutine's, and everything else it touches
// (AllUrls, the graph, the collection pair, the jobs' importance) is
// written elsewhere only while the stage is idle.
//
// Each round's deletes run as its pages come up and its puts go to the
// store together, after them, as when a round is written alone. The
// rounds' puts share one PutBatch, except that a round which drops a
// page first writes the puts of the rounds before it: a URL appears at
// most once per round, so only an earlier round can have put a page
// this one deletes. There are never more writes than rounds.
func (c *Crawler) applyContent(rounds []*roundState) error {
	start := time.Now()
	defer func() {
		phaseApplyContent.Observe(time.Since(start).Seconds())
		obs.DefaultTrace.Span("apply_content", rounds[0].id, len(rounds), start)
	}()
	c.recs = c.recs[:0]
	pending := 0 // rounds whose puts are in c.recs
	for _, r := range rounds {
		if pending > 0 && r.drops() {
			if err := c.storeRecs(pending); err != nil {
				return err
			}
			pending = 0
		}
		pending++
		for _, o := range r.live {
			j := o.job
			if o.dropped {
				if err := c.deletePage(j.e.URL); err != nil {
					return err
				}
				c.graph.RemovePage(j.e.URL)
				continue
			}
			rec := store.PageRecord{
				URL:        j.e.URL,
				Checksum:   j.res.Checksum,
				FetchedAt:  j.day,
				Version:    j.res.Version,
				Links:      j.res.Links,
				Importance: j.page.importance,
			}
			if c.cfg.StoreContent {
				rec.Content = j.res.Content
			}
			c.recs = append(c.recs, rec)

			// Figure 11 steps [11]-[12]: extract URLs, extend AllUrls; also
			// feed the link structure the RankingModule scans. A revisit
			// with an unchanged checksum is skipped: its links are taken
			// to be the ones already in the graph and AllUrls. That is
			// the premise of a checksum over the whole body, not a fact
			// of every source: simweb's checksum hashes only the page's
			// URL and version, while its links follow the site's current
			// window, so such a revisit can carry links the graph never
			// sees until the page next changes.
			if j.changed || !j.seen {
				c.added = extendLinks(c.graph, c.all, j.e.URL, j.res.Links, j.day, c.added)
			}
		}
	}
	return c.storeRecs(pending)
}

// deletePage removes a dropped or evicted page from the collection the
// crawl serves and, under shadowing, from the one it is filling. A
// failed delete ends the run like a failed store write: the page would
// otherwise stay in the served collection.
func (c *Crawler) deletePage(url string) error {
	if err := c.shadowed.Current().Delete(url); err != nil {
		return fmt.Errorf("core: deleting %s: %w", url, err)
	}
	if c.cfg.Update == Shadow {
		if err := c.shadowed.Shadow().Delete(url); err != nil {
			return fmt.Errorf("core: deleting %s: %w", url, err)
		}
	}
	return nil
}

// extendLinks makes links the page's out-set in the graph and extends
// AllUrls by the links that entered it, returning buf's storage for
// reuse. AllUrls needs no more: it never forgets a URL or a (from, to)
// pair, and every link in a page's out-set went through AddLink when it
// entered, so AddLink on a link that stayed would change nothing.
func extendLinks(g *webgraph.Graph, all *frontier.AllUrls, url string, links []string, day float64, buf []string) []string {
	buf = g.SetLinks(url, links, buf[:0])
	for _, l := range buf {
		all.AddLink(url, l, day)
	}
	return buf
}

// storeRecs writes the records the last rounds gathered, if any, in one
// PutBatch.
func (c *Crawler) storeRecs(rounds int) error {
	engineContentRoundsPerWrite.Observe(float64(rounds))
	if len(c.recs) == 0 {
		return nil
	}
	err := c.writeTarget().PutBatch(c.recs)
	c.recs = c.recs[:0]
	if err != nil {
		return fmt.Errorf("core: storing batch: %w", err)
	}
	return nil
}

// steadyHorizon is the virtual instant the steady loop must pause
// dispatching at: the run limit, the next ranking pass, or (under
// shadowing) the next swap.
func (c *Crawler) steadyHorizon(until float64) float64 {
	horizon := math.Min(until, c.nextRank)
	if c.cfg.Update == Shadow {
		horizon = math.Min(horizon, c.nextSwap)
	}
	return horizon
}
