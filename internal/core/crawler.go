package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"webevolve/internal/cluster"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/registry"
	"webevolve/internal/scheduler"
	"webevolve/internal/store"
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
	ownsColl bool // close coll with the crawler (dialed from ShardServers)
	rounds   *frontierRounds
	shadowed *store.Shadowed
	// storeClient is the remote-store connection dialed from
	// Config.StoreServer (nil for caller-provided or in-memory
	// collections); the crawler owns it and its shadowed pair.
	storeClient *cluster.RemoteStore
	graph       *webgraph.Graph

	policy  scheduler.Policy
	optimal *scheduler.Optimal

	est        map[string]*estimator
	lastSum    map[string]uint64 // last crawled checksum per URL
	importance map[string]float64
	siteStats  *siteStats // non-nil when Config.SiteLevelStats is on

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
	// round/apply scratch buffers. recs belongs to the content
	// goroutine, pushes and removes to the engine's.
	pool      *dispatchPool
	content   *contentStage
	roundBufs []*roundState
	pushes    []frontier.Entry
	removes   []string
	recs      []store.PageRecord
	// admits and evicts stage the ranking pass's frontier changes, which
	// it commits as one round (ranking.go).
	admits []frontier.Entry
	evicts []string
	// rebuildDone joins the revisit-plan rebuild a ranking pass left
	// running concurrently with the crawl (ranking.go).
	rebuildDone chan error

	metrics Metrics
}

// New builds a crawler over the given fetcher, with an in-memory
// collection — or, when Config.StoreServer is set, with its collection
// pair hosted on that storerd daemon: shadow generations become named
// server-side collections ("gen-1", "gen-2", ...), each dropped once
// retired, and the crawler owns (and Close closes) the connection.
func New(cfg Config, f fetch.Fetcher) (*Crawler, error) {
	var rs *cluster.RemoteStore
	var err error
	switch {
	case cfg.StoreServer != "":
		rs, err = cluster.DialStoreTCP(cfg.StoreServer, cluster.Options{})
	case cfg.Registry != "":
		// Discover store servers from the registry; a cluster without
		// any registered store members keeps the in-memory collection
		// (the shard plane is independent of the store plane).
		ms, merr := registry.NewClient(cfg.Registry).Membership()
		if merr != nil {
			return nil, fmt.Errorf("core: registry: %w", merr)
		}
		if len(ms.Store()) == 0 {
			return NewWithStore(cfg, f, store.NewShadowedMem())
		}
		rs, err = cluster.DialStoreRegistry(cfg.Registry, cluster.Options{})
	default:
		return NewWithStore(cfg, f, store.NewShadowedMem())
	}
	if err != nil {
		return nil, fmt.Errorf("core: dialing store server: %w", err)
	}
	c, err := newWithRemoteStore(cfg, f, rs)
	if err != nil {
		rs.Close()
		return nil, err
	}
	return c, nil
}

// newWithRemoteStore builds a crawler whose collection pair lives on
// the given store server; the crawler takes ownership of the client.
func newWithRemoteStore(cfg Config, f fetch.Fetcher, rs *cluster.RemoteStore) (*Crawler, error) {
	// A predecessor that died before Close may have left its shadow
	// generations on a durable server; reclaim them so the pair starts
	// genuinely fresh, without touching any other collection (e.g. a
	// webcrawl's "pages").
	names, err := rs.ListCollections()
	if err != nil {
		return nil, fmt.Errorf("core: store server: %w", err)
	}
	for _, n := range names {
		if isGenName(n) {
			if err := rs.DropCollection(n); err != nil {
				return nil, fmt.Errorf("core: store server: %w", err)
			}
		}
	}
	gen := 0
	sh, err := store.NewShadowed(nil, func() (store.Collection, error) {
		gen++
		return rs.EphemeralCollection(fmt.Sprintf("gen-%d", gen)), nil
	})
	if err != nil {
		return nil, err
	}
	c, err := NewWithStore(cfg, f, sh)
	if err != nil {
		sh.Close()
		return nil, err
	}
	c.storeClient = rs
	return c, nil
}

// isGenName reports whether a collection name is a crawler shadow
// generation ("gen-<number>").
func isGenName(name string) bool {
	rest, ok := strings.CutPrefix(name, "gen-")
	if !ok || rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return false
		}
	}
	return true
}

// NewWithStore builds a crawler with a caller-provided collection pair
// (e.g. disk-backed).
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
	coll, ownsColl, err := buildFrontier(cfg)
	if err != nil {
		return nil, err
	}
	c := &Crawler{
		cfg:        cfg,
		fetcher:    f,
		all:        frontier.NewAllUrls(),
		coll:       coll,
		ownsColl:   ownsColl,
		rounds:     newFrontierRounds(coll, cfg.DispatchBatch, cfg.ShardPolitenessDays),
		shadowed:   sh,
		graph:      webgraph.New(),
		policy:     policy,
		optimal:    opt,
		est:        make(map[string]*estimator),
		lastSum:    make(map[string]uint64),
		importance: make(map[string]float64),
		nextRank:   0, // first pass immediately, to seed admissions
		nextSwap:   cfg.CycleDays,
	}
	if cfg.SiteLevelStats {
		c.siteStats = newSiteStats()
	}
	for _, s := range cfg.Seeds {
		c.all.Add(s, 0)
		c.admit(s, 0)
	}
	c.coll.PushBatch(c.admits) // admit only stages the pushes
	c.admits = c.admits[:0]
	return c, nil
}

// buildFrontier resolves the configured revisit queue: an injected
// shard set, a dialed remote cluster, or (the default) in-process
// shards. The second return reports whether the crawler owns it.
func buildFrontier(cfg Config) (frontier.ShardSet, bool, error) {
	if cfg.Frontier != nil {
		return cfg.Frontier, false, nil
	}
	if cfg.Registry != "" {
		rs, err := cluster.DialRegistry(cfg.Registry, cluster.Options{
			PolitenessDays: cfg.ShardPolitenessDays,
		})
		if err != nil {
			return nil, false, err
		}
		return rs, true, nil
	}
	if len(cfg.ShardServers) > 0 {
		rs, err := cluster.DialTCP(cfg.ShardServers, cluster.Options{
			PolitenessDays: cfg.ShardPolitenessDays,
		})
		if err != nil {
			return nil, false, err
		}
		return rs, true, nil
	}
	return frontier.NewShardedPolite(cfg.Shards, cfg.ShardPolitenessDays), false, nil
}

// Close releases resources the crawler owns: the connections of a
// frontier dialed from Config.ShardServers, and the collection pair
// plus store connection dialed from Config.StoreServer (the remaining
// server-side generations are dropped). Injected frontiers and
// caller-provided stores belong to the caller and are left open.
func (c *Crawler) Close() error {
	var err error
	if c.ownsColl {
		if cl, ok := c.coll.(io.Closer); ok {
			err = cl.Close()
		}
	}
	if c.storeClient != nil {
		if serr := c.shadowed.Close(); err == nil {
			err = serr
		}
		if serr := c.storeClient.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// maybeRebalance lets a registry-backed remote frontier adopt a new
// membership epoch — driving a live shard migration when one is
// pending — and is a no-op for every other frontier. It runs only at
// quiescent round boundaries: no dispatch rounds in flight and no pops
// buffered in the round adapter, so every frontier entry is either on
// a shard server (and migrates intact) or already consumed. The call
// is rate-limited inside the client, so the engines invoke it every
// loop iteration.
func (c *Crawler) maybeRebalance() error {
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
		// The topology moved: invalidate the candidate cache so the next
		// round re-peeks through the new routing. The entries themselves
		// migrated intact — this is only cache hygiene, and it costs one
		// extra fan-out per membership change.
		c.rounds.flush()
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
	c.rounds.flush()
	if err != nil {
		return err
	}
	if err := shardSetErr(c.coll); err != nil {
		return err
	}
	if c.storeClient != nil {
		// Len/URLs transport failures cannot surface from their calls;
		// the sticky record catches them here.
		if serr := c.storeClient.Err(); serr != nil {
			return fmt.Errorf("core: store: %w", serr)
		}
	}
	return nil
}

// runSteady is the steady-mode loop: pop a round of due URLs, crawl it
// through the worker pool, fold the results back in — continuously,
// with the next rounds' fetches overlapping the previous round's
// apply (engine.go).
func (c *Crawler) runSteady(until float64) error {
	perFetch := 1 / c.cfg.PagesPerDay
	for c.day < until {
		if err := c.maybeRebalance(); err != nil {
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
			if ev, ok := c.rounds.nextEvent(); ok {
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
		if err := c.maybeRebalance(); err != nil {
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
		r.jobs = append(r.jobs, crawlJob{idx: len(r.jobs), url: u, day: d})
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
		c.removes = append(c.removes, r.jobs[i].url)
	}
	c.rounds.commitRound(c.removes, nil, false)
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
	err := cur.Scan(func(rec store.PageRecord) bool {
		if !inColl[rec.URL] {
			return true // evicted; let it go
		}
		if _, ok, gerr := shadow.Get(rec.URL); gerr == nil && !ok {
			_ = shadow.Put(rec)
		}
		return true
	})
	if err != nil {
		return err
	}
	if _, err := c.shadowed.Swap(); err != nil {
		return err
	}
	c.metrics.Swaps++
	return nil
}
