// Command webcrawl is a small production-style incremental crawler over
// real HTTP: seed URLs, polite fetching (robots.txt, per-host delay,
// optional night window), a disk-backed collection that survives
// restarts, checksum change detection, and EP-based revisit estimates.
//
// It is the live-web counterpart of the simulated experiments: the same
// frontier, store and estimator code paths, driven by wall-clock time.
//
// Usage:
//
//	webcrawl -seeds https://example.com/ -dir ./crawl -pages 50
//	webcrawl -seeds https://a.com/,https://b.org/ -delay 10s -night -workers 8
//
// The crawler runs one pass over all due URLs and exits; re-running
// continues incrementally from the stored state (compare timestamps and
// checksums across runs to watch change detection at work).
//
// The frontier is sharded per site: each worker claims a shard
// exclusively while it fetches from it, so concurrent workers never hit
// one host at once, and the politeness delay is enforced per shard (the
// HTTP fetcher enforces it per host again, as a backstop).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webevolve/internal/clock"
	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/crawlstate"
	"webevolve/internal/daemon"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/htmlparse"
	"webevolve/internal/obs"
	"webevolve/internal/profiles"
	"webevolve/internal/registry"
	"webevolve/internal/robots"
	"webevolve/internal/store"
)

func main() {
	seeds := flag.String("seeds", "", "comma-separated seed URLs (required)")
	dir := flag.String("dir", "crawl-data", "directory for the persistent collection")
	maxPages := flag.Int("pages", 25, "maximum pages to fetch this run")
	delay := flag.Duration("delay", 10*time.Second, "minimum delay between requests to one host")
	night := flag.Bool("night", false, "crawl only 9PM-6AM local time (the paper's window)")
	sameSite := flag.Bool("samesite", true, "follow links only within seed hosts")
	agent := flag.String("agent", "", "override User-Agent")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent fetch workers")
	shards := flag.Int("shards", 16, "per-site frontier shards")
	shardServers := flag.String("shard-servers", "", "comma-separated shardd endpoints hosting the frontier (replaces in-process shards)")
	storeServer := flag.String("store-server", "", "storerd endpoint hosting the page collection (replaces the local disk store in -dir)")
	registryAddr := flag.String("registry", "", "registryd endpoint; shard and store servers are discovered from it at startup (alternative to the static lists)")
	content := flag.Bool("content", true, "store page bodies in the collection (they feed the serving plane); disable to keep only metadata")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsListen := flag.String("metrics-listen", "", "host:port for the debug listener serving /metrics, /debug/pprof and /debug/trace (empty disables)")
	metricsAddrFile := flag.String("metrics-addr-file", "", "write the debug listener's bound address to this file (removed on exit)")
	traceFile := flag.String("trace", "", "append JSONL trace events (fetch spans) to this file")
	flag.Parse()

	if *seeds == "" {
		fmt.Fprintln(os.Stderr, "webcrawl: -seeds is required")
		flag.Usage()
		os.Exit(2)
	}
	stopProfiles, err := profiles.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webcrawl:", err)
		os.Exit(1)
	}
	stopDebug, err := daemon.ServeDebug("webcrawl", *metricsListen, *metricsAddrFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webcrawl:", err)
		os.Exit(1)
	}
	if *traceFile != "" {
		tf, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webcrawl:", err)
			os.Exit(1)
		}
		defer tf.Close()
		obs.DefaultTrace.SetWriter(tf)
	}
	o := crawlOpts{
		seeds:    strings.Split(*seeds, ","),
		dir:      *dir,
		maxPages: *maxPages,
		delay:    *delay,
		night:    *night,
		sameSite: *sameSite,
		agent:    *agent,
		workers:  *workers,
		shards:   *shards,
		content:  *content,
	}
	o.shardServers, err = daemon.ParseEndpoints(*shardServers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webcrawl: -shard-servers:", err)
		os.Exit(1)
	}
	if *registryAddr != "" {
		o.registry, err = daemon.ParseEndpoint(*registryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webcrawl: -registry:", err)
			os.Exit(1)
		}
	}
	o.storeServer = *storeServer
	err = run(o)
	stopProfiles()
	stopDebug()
	if err != nil {
		fmt.Fprintln(os.Stderr, "webcrawl:", err)
		os.Exit(1)
	}
}

type crawlOpts struct {
	seeds    []string
	dir      string
	maxPages int
	delay    time.Duration
	night    bool
	sameSite bool
	agent    string
	workers  int
	shards   int
	// shardServers, when set, mounts the frontier from shardd daemons
	// instead of in-process shards. One webcrawl process owns the
	// cluster at a time: state.json and the page store are still
	// per-process, so sharing a cluster between concurrent crawlers
	// would split histories and overwrite schedules (multi-crawler
	// state is a ROADMAP item).
	shardServers []string
	// storeServer, when set, mounts the page collection from a storerd
	// daemon instead of the local disk store — same ownership caveat.
	// The collection is named "pages" on the server and persists there
	// across runs, like the -dir store does locally.
	storeServer string
	// registry, when set, discovers the shard and store servers from a
	// registryd daemon at startup instead of static lists. Discovery is
	// dial-time only here: webcrawl's dispatcher holds politeness claims
	// for its whole (short, -pages bounded) run, so there is no
	// quiescent boundary to migrate at — the simulation engines follow
	// membership live, webcrawl picks it up on the next run.
	registry string
	// content stores fetched page bodies alongside the metadata, so the
	// serving plane (webservd, storerd -serve) can return them.
	content bool
}

func run(o crawlOpts) error {
	var coll store.Collection
	var storeRemote *cluster.RemoteStore
	if o.storeServer != "" {
		var err error
		storeRemote, err = cluster.DialStoreTCP(o.storeServer, cluster.Options{})
		if err != nil {
			return fmt.Errorf("dialing store server: %w", err)
		}
		defer storeRemote.Close()
		coll = storeRemote.Collection("pages")
	} else if o.registry != "" && registryHasStores(o.registry) {
		var err error
		storeRemote, err = cluster.DialStoreRegistry(o.registry, cluster.Options{})
		if err != nil {
			return fmt.Errorf("dialing store members: %w", err)
		}
		defer storeRemote.Close()
		coll = storeRemote.Collection("pages")
	} else {
		disk, err := store.OpenDisk(filepath.Join(o.dir, "pages"))
		if err != nil {
			return err
		}
		defer disk.Close()
		coll = disk
	}
	st, err := crawlstate.Load(filepath.Join(o.dir, "state.json"))
	if err != nil {
		return err
	}

	pol := robots.Politeness{MinDelay: o.delay}
	if o.night {
		pol.NightOnly, pol.NightStart, pol.NightEnd = true, 21, 6
	}
	f := &fetch.HTTPFetcher{Politeness: pol, Epoch: st.Epoch, UserAgent: o.agent}

	// Rebuild the revisit queue: stored pages at their due times, seeds
	// and never-crawled discoveries immediately. Shards carry the
	// politeness delay, so claims from one site are spaced even before
	// the HTTP fetcher's own per-host gate.
	if o.shards < 1 {
		o.shards = 1
	}
	if o.workers < 1 {
		o.workers = 1
	}
	var q frontier.ShardSet
	var remote *cluster.RemoteShards
	if o.registry != "" {
		remote, err = cluster.DialRegistry(o.registry, cluster.Options{
			PolitenessDays: clock.Days(o.delay),
		})
		if err != nil {
			return fmt.Errorf("dialing registry cluster: %w", err)
		}
		defer remote.Close()
		q = remote
	} else if len(o.shardServers) > 0 {
		remote, err = cluster.DialTCP(o.shardServers, cluster.Options{
			PolitenessDays: clock.Days(o.delay),
		})
		if err != nil {
			return fmt.Errorf("dialing shard servers: %w", err)
		}
		defer remote.Close()
		q = remote
	} else {
		q = frontier.NewShardedPolite(o.shards, clock.Days(o.delay))
	}
	nowDay := clock.Days(time.Since(st.Epoch))
	rebuild := make([]frontier.Entry, 0, len(st.Due))
	for url, due := range st.Due {
		rebuild = append(rebuild, frontier.Entry{URL: url, Due: due})
	}
	q.PushBatch(rebuild) // one frame per shard server instead of one per stored URL
	for _, s := range o.seeds {
		s = htmlparse.Normalize(strings.TrimSpace(s))
		if !q.Contains(s) {
			q.Push(s, nowDay, 1)
			if _, ok := st.Due[s]; !ok {
				// Record seeds in the due table too, so link discovery
				// never mistakes a queued (or in-flight) seed for new.
				st.Due[s] = nowDay
			}
		}
	}

	seedHosts := make(map[string]bool)
	for _, s := range o.seeds {
		if u := htmlparse.Normalize(strings.TrimSpace(s)); u != "" {
			seedHosts[hostOf(u)] = true
		}
	}

	c := &crawl{
		opts: o, coll: coll, st: st, q: q, f: f, seedHosts: seedHosts,
		pending: make(map[string]uint64),
	}
	c.loop()
	fmt.Printf("fetched %d pages; collection holds %d\n", c.fetched.Load(), coll.Len())
	if c.err != nil {
		return c.err
	}
	if remote != nil {
		if err := remote.Err(); err != nil {
			return fmt.Errorf("shard cluster: %w", err)
		}
	}
	if storeRemote != nil {
		if err := storeRemote.Err(); err != nil {
			return fmt.Errorf("store server: %w", err)
		}
	}
	return crawlstate.Save(filepath.Join(o.dir, "state.json"), st)
}

// registryHasStores reports whether the registry lists any store
// members; without one, the collection stays on local disk (-dir).
func registryHasStores(registryAddr string) bool {
	ms, err := registry.NewClient(registryAddr).Membership()
	return err == nil && len(ms.Store()) > 0
}

// crawl is one webcrawl run: core's unified dispatcher claiming due
// shards and a pool of workers fetching them.
type crawl struct {
	opts      crawlOpts
	coll      store.Collection
	st        *crawlstate.State
	q         frontier.ShardSet
	f         *fetch.HTTPFetcher
	seedHosts map[string]bool

	mu      sync.Mutex // guards st maps, batch, pending, first error, and stdout
	err     error
	fetched atomic.Int64

	// batch buffers crawled records for one PutBatch write (like the
	// sim engine's apply), instead of paying a store flush per page;
	// pending keeps the buffered checksums visible to change detection
	// until the batch lands on disk.
	batch   []store.PageRecord
	pending map[string]uint64
}

// flushEvery is the store write batch size.
const flushEvery = 16

// prevChecksum returns the last stored checksum for url, consulting
// buffered-but-unflushed records before the collection.
func (c *crawl) prevChecksum(url string) (uint64, bool, error) {
	c.mu.Lock()
	sum, ok := c.pending[url]
	c.mu.Unlock()
	if ok {
		return sum, true, nil
	}
	prev, had, err := c.coll.Get(url)
	if err != nil {
		return 0, false, err
	}
	return prev.Checksum, had, nil
}

// flush writes the buffered records in one PutBatch. Safe from any
// worker; each call drains whatever is buffered at that instant.
func (c *crawl) flush() error {
	c.mu.Lock()
	batch := c.batch
	c.batch = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	if err := c.coll.PutBatch(batch); err != nil {
		c.recordErr(err)
		return err
	}
	c.mu.Lock()
	for _, rec := range batch {
		// A newer fetch of the same URL may have re-buffered it; only
		// clear entries this batch actually made durable.
		if c.pending[rec.URL] == rec.Checksum {
			delete(c.pending, rec.URL)
		}
	}
	c.mu.Unlock()
	return nil
}

func (c *crawl) nowDay() float64 { return clock.Days(time.Since(c.st.Epoch)) }

func (c *crawl) recordErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// loop dispatches due URLs to the worker pool until the fetch budget is
// spent or nothing more is due, through core.DispatchClaims — the
// claim mode of the worker pool the simulated engine runs on. Each
// dispatched job holds its shard's claim, so one site is never fetched
// by two workers at once.
func (c *crawl) loop() {
	err := core.DispatchClaims(core.ClaimDispatch{
		Workers: c.opts.workers,
		Coll:    c.q,
		Now:     c.nowDay,
		Work: func(url string) error {
			return c.crawlOne(url)
		},
		Release: func(shard int) {
			c.q.Release(shard, c.nowDay()+clock.Days(c.opts.delay))
		},
		Gate: func(_, inflight int64) bool {
			// An errored fetch refunds budget, so the gate re-checks as
			// fetches land rather than counting dispatches.
			return int(c.fetched.Load()+inflight) < c.opts.maxPages
		},
		Idle: func(inflight int64, _ int) bool {
			if inflight > 0 {
				time.Sleep(10 * time.Millisecond)
				return true
			}
			// Entries can be due but politeness-blocked; wait that out.
			// With nothing due at all, the pass is over.
			now := c.nowDay()
			head, hok := c.q.Peek()
			if !hok || head.Due > now {
				return false
			}
			if ev, eok := c.q.NextEvent(); eok && ev > now {
				time.Sleep(clock.FromDays(ev - now))
				return true
			}
			time.Sleep(10 * time.Millisecond)
			return true
		},
	})
	if err != nil {
		c.recordErr(err)
	}
	if err := c.flush(); err != nil { // the partial tail batch
		c.recordErr(err)
	}
}

// crawlOne fetches one URL and folds the result into the store, the
// change histories, and the frontier. Per-URL fetch failures are
// logged and refunded, not fatal; a returned error (store failure)
// stops the whole crawl.
func (c *crawl) crawlOne(url string) error {
	res, err := c.f.Fetch(url, 0)
	if err != nil {
		c.mu.Lock()
		fmt.Fprintf(os.Stderr, "  error %s: %v\n", url, err)
		c.mu.Unlock()
		return nil
	}
	c.fetched.Add(1)
	if res.NotFound {
		c.mu.Lock()
		// Drop any buffered record so the flush cannot resurrect the
		// vanished page after the delete below.
		for i, rec := range c.batch {
			if rec.URL == url {
				c.batch = append(c.batch[:i], c.batch[i+1:]...)
				break
			}
		}
		delete(c.pending, url)
		fmt.Printf("  gone    %s\n", url)
		delete(c.st.Due, url)
		delete(c.st.Histories, url)
		c.mu.Unlock()
		_ = c.coll.Delete(url)
		return nil
	}
	prevSum, had, err := c.prevChecksum(url)
	if err != nil {
		return err
	}
	changed := had && prevSum != res.Checksum
	c.mu.Lock()
	rec := store.PageRecord{
		URL: url, Checksum: res.Checksum, FetchedAt: res.Day, Links: res.Links,
	}
	if c.opts.content {
		rec.Content = res.Content
	}
	c.batch = append(c.batch, rec)
	c.pending[url] = res.Checksum
	full := len(c.batch) >= flushEvery
	c.mu.Unlock()
	if full {
		// A store failure must stop the crawl: flush already dropped
		// the batch, so continuing would silently lose every record
		// buffered after it.
		if err := c.flush(); err != nil {
			return err
		}
	}

	c.mu.Lock()
	c.st.Histories[url] = append(c.st.Histories[url], crawlstate.Obs{Day: res.Day, Changed: changed})
	// Reschedule by the EP estimate: unknown pages weekly, known pages
	// at half their estimated change interval, clamped.
	interval := crawlstate.ReviseInterval(c.st.Histories[url])
	due := res.Day + interval
	c.st.Due[url] = due

	status := "new    "
	if had && changed {
		status = "changed"
	} else if had {
		status = "same   "
	}
	fmt.Printf("  %s %s (%d links)\n", status, url, len(res.Links))

	var discovered []string
	for _, l := range res.Links {
		l = htmlparse.Normalize(l)
		if c.opts.sameSite && !c.seedHosts[hostOf(l)] {
			continue
		}
		if _, ok := c.st.Due[l]; !ok && !c.q.Contains(l) {
			c.st.Due[l] = res.Day
			discovered = append(discovered, l)
		}
	}
	c.mu.Unlock()

	c.q.Push(url, due, 0)
	for _, l := range discovered {
		c.q.Push(l, res.Day, 0)
	}
	return nil
}

func hostOf(u string) string {
	s := u
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}
