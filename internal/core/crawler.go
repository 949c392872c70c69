package core

import (
	"errors"
	"fmt"
	"math"

	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/scheduler"
	"webevolve/internal/store"
	"webevolve/internal/urlid"
	"webevolve/internal/webgraph"
)

// Metrics counts crawler activity.
type Metrics struct {
	Fetches         int64
	ChangesDetected int64
	NotFound        int64
	NewPages        int64
	Admissions      int64
	Evictions       int64
	Swaps           int64
	RankPasses      int64
	BytesFetched    int64
	IdleDays        float64
}

// Crawler is the incremental crawler engine (and, in batch+shadow+fixed
// configuration, the periodic-style refresher over a fixed URL set). It
// runs over virtual time: each fetch advances the virtual day by the
// configured bandwidth's reciprocal, which makes experiments
// deterministic. Fetches are dispatched in pipelined rounds to
// Config.Workers concurrent CrawlModule workers over the sharded
// frontier (engine.go, dispatch.go): while one round's results are
// folded in, the next rounds are already fetching. Results are applied
// in pop order, so any worker count produces the schedule — and, on
// the deterministic simulator, the results — of the sequential
// crawler.
type Crawler struct {
	cfg     Config
	fetcher fetch.Fetcher

	all      *frontier.AllUrls
	coll     frontier.ShardSet
	rounds   *frontier.Rounds
	shadowed *store.Shadowed
	graph    *webgraph.Graph

	policy  scheduler.Policy
	optimal *scheduler.Optimal

	// solveRate is whether the policy reads the working rate, so the
	// workers solve it. Of the policies Config builds only Proportional
	// does: Fixed ignores the rate, and Optimal reads its plan,
	// DefaultDays outside it.
	solveRate bool

	// ids interns the URLs the engine schedules. It is written only on
	// the engine goroutine (resolveJob, and the ranking pass's rate
	// snapshot), which also owns pages: pages[id] is the crawl state of
	// the URL with that ID, nil until its first pop and after its drop
	// or eviction. The states are pointers, so a job's never moves.
	// ranks is the last ranking pass's importance, read when a page's
	// state is made.
	ids   urlid.Table
	pages []*pageState
	ranks map[string]float64

	day      float64
	nextRank float64
	nextSwap float64

	// Batch-mode resumable state: the remaining crawl list of the
	// current cycle, its per-fetch virtual cost, and the next cycle
	// start.
	batchQueue    []string
	batchPerFetch float64
	nextCycle     float64

	// Dispatch-pipeline state: the worker pool and the content stage
	// (both alive for the duration of one RunUntil) and the reusable
	// round/apply scratch buffers. recs and added belong to the content
	// goroutine, pushes and removes to the engine's.
	pool      *dispatchPool
	content   *contentStage
	roundBufs []*roundState
	pushes    []frontier.Entry
	removes   []string
	recs      []store.PageRecord
	added     []string // extendLinks' links new to a page
	// admits and evicts stage the ranking pass's frontier changes, which
	// it commits as one round (ranking.go).
	admits []frontier.Entry
	evicts []string
	// rebuildDone joins the revisit-plan rebuild a ranking pass left
	// running concurrently with the crawl (ranking.go).
	rebuildDone chan error

	metrics Metrics
}

// New builds a crawler over the given fetcher with an in-memory
// collection pair.
func New(cfg Config, f fetch.Fetcher) (*Crawler, error) {
	return NewWithStore(cfg, f, store.NewShadowedMem())
}

// NewWithStore builds a crawler over a caller-provided collection pair
// (disk-backed, or on store servers: cluster.RemoteStore.Shadowed).
// The caller owns the pair, as it owns an injected Config.Frontier.
func NewWithStore(cfg Config, f fetch.Fetcher, sh *store.Shadowed) (*Crawler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if f == nil {
		return nil, errors.New("core: nil fetcher")
	}
	if sh == nil {
		return nil, errors.New("core: nil store")
	}
	policy, opt, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	coll := cfg.Frontier
	if coll == nil {
		coll = frontier.NewSharded(16) // pops in one queue's order at any count
	}
	c := &Crawler{
		cfg:      cfg,
		fetcher:  f,
		all:      frontier.NewAllUrls(),
		coll:     coll,
		rounds:   frontier.NewRounds(coll, cfg.DispatchBatch),
		shadowed: sh,
		graph:    webgraph.New(),
		policy:   policy,
		optimal:  opt,
		nextRank: 0, // first pass immediately, to seed admissions
		nextSwap: cfg.CycleDays,
	}
	_, c.solveRate = policy.(scheduler.Proportional)
	for _, s := range cfg.Seeds {
		c.all.Add(s, 0)
		c.admit(s, 0)
	}
	// admit only stages the pushes; the seeds ship as the first round.
	if err := c.rounds.Commit(nil, c.admits, false); err != nil {
		return nil, err
	}
	c.admits = c.admits[:0]
	return c, nil
}

// Close releases nothing and returns nil: the crawler owns neither its
// frontier nor its collection pair, which belong to the caller.
func (c *Crawler) Close() error { return nil }

// roundBoundary runs at the top of every engine loop iteration, a
// quiescent round boundary: no dispatch rounds in flight. The round
// adapter (frontier.Rounds) may still hold pops and commits it has not
// shipped. It ends the run on the adapter's sticky error, then lets a
// registry-backed remote frontier adopt a new membership epoch, driving
// a live shard migration when one is pending (rate-limited inside the
// client): every frontier entry is on a shard server, and migrates
// intact. The ops still waiting in the adapter are sound across the
// move: they route by the membership in force when they ship, and the
// epoch change's Flush below ships them.
func (c *Crawler) roundBoundary() error {
	if err := c.rounds.Err(); err != nil {
		return err
	}
	rb, ok := c.coll.(interface{ Rebalance() error })
	if !ok {
		return nil
	}
	type epocher interface{ Epoch() uint64 }
	var before uint64
	if ep, ok := c.coll.(epocher); ok {
		before = ep.Epoch()
	}
	if err := rb.Rebalance(); err != nil {
		return fmt.Errorf("core: frontier: %w", err)
	}
	if ep, ok := c.coll.(epocher); ok && ep.Epoch() != before {
		// The topology moved: ship what waits and invalidate the
		// candidate cache, so the next round re-peeks through the new
		// routing. The entries themselves migrated intact — this is only
		// cache hygiene, and it costs one extra fan-out per membership
		// change.
		c.rounds.Flush()
	}
	return nil
}

// shardSetErr surfaces a remote frontier's sticky transport error: the
// ShardSet interface is error-free, so a failed cluster looks like a
// drained queue until checked here. Every engine exit path calls it.
func shardSetErr(fr frontier.ShardSet) error {
	if fe, ok := fr.(interface{ Err() error }); ok {
		if err := fe.Err(); err != nil {
			return fmt.Errorf("core: frontier: %w", err)
		}
	}
	return nil
}

// Day returns the current virtual day.
func (c *Crawler) Day() float64 { return c.day }

// Metrics returns a copy of the activity counters.
func (c *Crawler) Metrics() Metrics { return c.metrics }

// Collection returns the collection currently visible to users (the
// "current collection" of Section 4).
func (c *Crawler) Collection() store.Collection { return c.shadowed.Current() }

// AllUrls exposes the discovered-URL table.
func (c *Crawler) AllUrls() *frontier.AllUrls { return c.all }

// CollUrls exposes the revisit queue: the sharded frontier the workers
// drain (in-process or remote, per Config).
func (c *Crawler) CollUrls() frontier.ShardSet { return c.coll }

// Graph exposes the link structure captured so far.
func (c *Crawler) Graph() *webgraph.Graph { return c.graph }

// writeTarget is where freshly crawled pages go.
func (c *Crawler) writeTarget() store.Collection {
	if c.cfg.Update == Shadow {
		return c.shadowed.Shadow()
	}
	return c.shadowed.Current()
}

// RunUntil advances the crawl to the given virtual day.
func (c *Crawler) RunUntil(until float64) error {
	c.pool = newDispatchPool(c.cfg.Workers, c.fetchJob)
	c.content = c.startContent()
	var err error
	if c.cfg.Mode == Batch {
		err = c.runBatch(until)
	} else {
		err = c.runSteady(until)
	}
	if cerr := c.pool.close(); err == nil {
		err = cerr
	}
	c.pool = nil
	// The caller may read the collection, AllUrls and the graph as soon
	// as this returns: every scheduled round's content lands first.
	if cerr := c.content.stop(); err == nil {
		err = cerr
	}
	c.content = nil
	if jerr := c.joinRebuild(); err == nil {
		err = jerr
	}
	// Ship any pops still buffered in the round adapter, so a remote
	// frontier ends in the same state as in-process shards would —
	// including on the error path: in-process pops mutate the frontier
	// at pop time, so an errored run's popped-but-unapplied URLs (up to
	// depth rounds of them) are consumed without a reschedule either
	// way. An errored crawl is not resumable bit-identically; the
	// guarantee here is only local/remote consistency.
	if ferr := c.rounds.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	return shardSetErr(c.coll)
}

// runSteady is the steady-mode loop: pop a round of due URLs, crawl it
// through the worker pool, fold the results back in — continuously,
// with the next rounds' fetches overlapping the previous round's
// apply (engine.go).
func (c *Crawler) runSteady(until float64) error {
	perFetch := 1 / c.cfg.PagesPerDay
	for c.day < until {
		if err := c.roundBoundary(); err != nil {
			return err
		}
		if c.day >= c.nextRank {
			if err := c.rankingPass(); err != nil {
				return err
			}
			c.nextRank += c.cfg.RankEveryDays
			continue
		}
		if c.cfg.Update == Shadow && c.day >= c.nextSwap {
			if err := c.swap(); err != nil {
				return err
			}
			c.nextSwap += c.cfg.CycleDays
			continue
		}
		horizon := c.steadyHorizon(until)
		dispatched, err := c.pipelineRounds(steadyDepth, func(r *roundState, windowFloor float64) {
			c.popSteadyRound(r, horizon, perFetch, windowFloor)
		})
		if err != nil {
			return err
		}
		if !dispatched {
			// Idle until the next event: head due (politeness-adjusted),
			// rank, or swap.
			next := math.Min(c.nextRank, until)
			if c.cfg.Update == Shadow {
				next = math.Min(next, c.nextSwap)
			}
			if ev, ok := c.rounds.NextEvent(); ok {
				next = math.Min(next, ev)
			}
			if next <= c.day {
				next = c.day + perFetch
			}
			c.metrics.IdleDays += next - c.day
			c.day = next
		}
	}
	return nil
}

// runBatch is the batch-mode loop: at each cycle start, crawl the whole
// collection in a burst lasting BatchDays, then idle until the next
// cycle. The peak speed is pagesPerCycle/BatchDays — higher than the
// steady crawler's, the paper's peak-load argument.
//
// The loop is resumable at any virtual instant: RunUntil may stop it in
// the middle of a batch crawl (evaluators sample freshness mid-cycle)
// and the crawl continues exactly where it left off on the next call,
// with the shadow swap happening only when the crawl truly completes.
func (c *Crawler) runBatch(until float64) error {
	for c.day < until {
		if err := c.roundBoundary(); err != nil {
			return err
		}
		if len(c.batchQueue) == 0 {
			if c.day < c.nextCycle {
				// Idle between the end of a crawl and the next cycle.
				next := math.Min(c.nextCycle, until)
				c.metrics.IdleDays += next - c.day
				c.day = next
				continue
			}
			// Start a new cycle: refine, then snapshot the crawl list.
			if err := c.rankingPass(); err != nil {
				return err
			}
			c.nextCycle = c.day + c.cfg.CycleDays
			c.batchQueue = c.coll.URLs()
			if len(c.batchQueue) == 0 {
				c.day = math.Min(c.nextCycle, until)
				continue
			}
			c.batchPerFetch = c.cfg.BatchDays / float64(len(c.batchQueue))
			continue
		}
		// Drain the cycle's crawl list through the pipelined rounds.
		// The snapshot is a set, so no URL repeats within a cycle and
		// the chunked pop sequence matches the sequential one; unlike
		// the steady loop, pops draw from the snapshot rather than the
		// frontier, so overlapping rounds need no reschedule window.
		if _, err := c.pipelineRounds(batchDepth, func(r *roundState, _ float64) {
			c.popBatchRound(r, until)
		}); err != nil {
			return err
		}
		if len(c.batchQueue) == 0 && c.cfg.Update == Shadow {
			if err := c.swap(); err != nil {
				return err
			}
		}
	}
	return nil
}

// popBatchRound takes the next dispatch round off the batch-mode crawl
// list, removing the popped URLs from the frontier (push-back happens
// in applySchedule) and advancing virtual time past the last fetch.
func (c *Crawler) popBatchRound(r *roundState, until float64) {
	r.reset()
	d := c.day
	for len(r.jobs) < c.cfg.DispatchBatch && len(c.batchQueue) > 0 && d < until {
		u := c.batchQueue[0]
		c.batchQueue = c.batchQueue[1:]
		r.jobs = append(r.jobs, crawlJob{idx: len(r.jobs), e: frontier.Entry{URL: u}, day: d})
		if err := c.resolveJob(&r.jobs[len(r.jobs)-1]); err != nil {
			// Drop the half-resolved job: dispatching it would hand the
			// workers a nil estimator. The error still ends the run via
			// roundState.err.
			r.jobs = r.jobs[:len(r.jobs)-1]
			r.err = err
			break
		}
		d += c.batchPerFetch
	}
	if len(r.jobs) == 0 {
		return
	}
	// Pop to keep queue bookkeeping honest: one batched remove per
	// round (a single trip per remote server) instead of one per URL.
	c.removes = c.removes[:0]
	for i := range r.jobs {
		c.removes = append(c.removes, r.jobs[i].e.URL)
	}
	c.rounds.Commit(c.removes, nil, false)
	c.day = d
}

// swap publishes the shadow collection. Pages in the collection that were
// not re-crawled this cycle are carried forward from the old current
// collection, so slow-revisit pages do not vanish at swap time.
func (c *Crawler) swap() error {
	if err := c.quiesce(); err != nil {
		return err
	}
	shadow := c.shadowed.Shadow()
	cur := c.shadowed.Current()
	// One URLs snapshot instead of a Contains per stored page: same
	// answer, and one fan-out rather than N round trips on a remote
	// frontier.
	inColl := make(map[string]bool, c.coll.Len())
	for _, u := range c.coll.URLs() {
		inColl[u] = true
	}
	var carryErr error
	err := cur.Scan(func(rec store.PageRecord) bool {
		if !inColl[rec.URL] {
			return true // evicted; let it go
		}
		_, ok, err := shadow.Get(rec.URL)
		if err == nil && !ok {
			err = shadow.Put(rec)
		}
		if err != nil {
			carryErr = fmt.Errorf("core: carrying %s forward: %w", rec.URL, err)
			return false
		}
		return true
	})
	if err == nil {
		err = carryErr
	}
	if err != nil {
		return err
	}
	if _, err := c.shadowed.Swap(); err != nil {
		return err
	}
	c.metrics.Swaps++
	return nil
}
