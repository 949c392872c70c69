package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/pagerank"
	"webevolve/internal/simweb"
	"webevolve/internal/store"
)

// Crawl workload constants (ISSUE 11). The web is the paper's 270 sites
// with 60-page windows; the crawler keeps 10,000 of its 16,200 pages.
const (
	crawlPagesPerSite = 60
	crawlCollection   = 10000
	crawlCycleDays    = 5
	crawlShards       = 32
	clusterServers    = 2
	clusterResident   = 2000
	latencyWorkers    = 8
	latencyBatch      = 64
	latencyDelay      = time.Millisecond
	daysPerSecond     = 4.0 // crawl_mem, crawl_cluster_disk
	latencyDaysPerSec = 1.5 // crawl_latency
	crawlSliceDays    = 0.5 // RunUntil granularity; one op-latency sample per slice
	// A ranking pass every fifth day makes the slowest tenth of the slices
	// a population of their own, and the ten-samples-beyond rule would put
	// the tail two samples below it; p75 sits inside the ordinary slices.
	crawlTailLimit     = 0.75
	diskProbePushes    = 100000
	diskProbeClaims    = 10000
	diskProbeResidents = 10000
)

// crawlEnv is one prepared crawl: a fresh simulated web, the crawler wired
// to its frontier and store, and — for crawl_cluster_disk — the servers
// behind them.
type crawlEnv struct {
	p       params
	tr      *tracer
	days    float64
	workers int
	dir     string // scratch root; empty for in-memory workloads

	web     *simweb.Web
	crawler *core.Crawler
	sh      *store.Shadowed

	// Traced run only.
	fetcher *tracedFetcher
	shards  *tracedShards
	counts  *storeCounts

	// crawl_cluster_disk only.
	fronts    []*frontier.Sharded
	shardSrvs []*cluster.ShardServer
	storeSrv  *cluster.StoreServer
	rshards   *cluster.RemoteShards
	rstore    *cluster.RemoteStore
	serving   sync.WaitGroup
	reopened  *store.Disk // the store directory, reopened after shutdown
}

func crawlDays(p params) float64 {
	perSec := daysPerSecond
	if p.workload == crawlLatency {
		perSec = latencyDaysPerSec
	}
	// Whole slices, at least two so a ranking pass and a reschedule happen.
	return math.Max(2*crawlSliceDays, math.Floor(perSec*p.seconds/crawlSliceDays)*crawlSliceDays)
}

func setupCrawl(p params, tr *tracer) (instance, error) {
	e := &crawlEnv{p: p, tr: tr, days: crawlDays(p), workers: runtime.NumCPU()}
	web, err := simweb.New(simweb.PaperScaleConfig(p.seed, crawlPagesPerSite))
	if err != nil {
		return nil, err
	}
	e.web = web
	sim := fetch.NewSimFetcher(web)
	sim.WithContent = true
	var fetcher fetch.Fetcher = sim
	cfg := core.Config{
		Seeds:          web.RootURLs(),
		CollectionSize: crawlCollection,
		PagesPerDay:    crawlCollection,
		CycleDays:      crawlCycleDays,
		RankEveryDays:  crawlCycleDays,
		Freq:           core.VariableFreq,
		Estimator:      core.EstimatorEP,
		StoreContent:   true,
	}
	if p.workload == crawlLatency {
		e.workers = latencyWorkers
		cfg.DispatchBatch = latencyBatch
		fetcher = fetch.Delayed{Base: sim, Delay: latencyDelay}
	} else {
		cfg.DispatchBatch = 8 * e.workers
	}
	cfg.Workers = e.workers
	if tr != nil {
		e.fetcher = &tracedFetcher{inner: fetcher, tr: tr}
		fetcher = e.fetcher
		e.counts = &storeCounts{}
	}

	var shards roundShards
	newColl := func() (store.Collection, error) { return store.NewMem(), nil }
	var current store.Collection
	if p.workload == crawlClusterDisk {
		if err := e.startCluster(); err != nil {
			e.close()
			return nil, err
		}
		shards = e.rshards
		// The visible collection is durable so it can be reopened and
		// checked after the run; shadow generations (unused by an in-place
		// crawl) are ephemeral, as core.New makes them.
		current = e.rstore.Collection("pages")
		gen := 0
		newColl = func() (store.Collection, error) {
			gen++
			return e.rstore.EphemeralCollection(fmt.Sprintf("gen-%d", gen)), nil
		}
	} else {
		shards = frontier.NewShardedPolite(crawlShards, 0)
		current = store.NewMem()
	}
	cfg.Frontier = shards
	if tr != nil {
		cfg.Frontier, e.shards = traceShards(shards, tr)
		current = traceCollection(current, tr, e.counts)
		plain := newColl
		newColl = func() (store.Collection, error) {
			c, err := plain()
			if err != nil {
				return nil, err
			}
			return traceCollection(c, tr, e.counts), nil
		}
	}
	if e.sh, err = store.NewShadowed(current, newColl); err != nil {
		e.close()
		return nil, err
	}
	if e.crawler, err = core.NewWithStore(cfg, fetcher, e.sh); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// startCluster brings up the shard servers (disk-tier frontier, WAL on) and
// the disk store server on loopback TCP, and dials them.
func (e *crawlEnv) startCluster() error {
	dir, err := os.MkdirTemp(e.p.tmpRoot, e.p.workload+"-")
	if err != nil {
		return err
	}
	e.dir = dir
	serve := func(listen func(string) error, serve func() error) error {
		if err := listen("127.0.0.1:0"); err != nil {
			return err
		}
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			_ = serve() // returns ErrServerClosed at close
		}()
		return nil
	}
	var addrs []string
	for i := 0; i < clusterServers; i++ {
		q, err := frontier.OpenSharded(frontier.StoreConfig{
			Shards:         crawlShards / clusterServers,
			SpillDir:       e.frontierDir(i),
			ResidentBudget: clusterResident,
		})
		if err != nil {
			return err
		}
		e.fronts = append(e.fronts, q)
		srv := cluster.NewShardServer(q)
		e.shardSrvs = append(e.shardSrvs, srv)
		if err := srv.OpenWAL(e.walDir(i)); err != nil {
			return err
		}
		if err := serve(srv.Listen, srv.Serve); err != nil {
			return err
		}
		addrs = append(addrs, srv.Addr().String())
	}
	e.storeSrv = cluster.NewDiskStoreServer(e.storeDir())
	if err := serve(e.storeSrv.Listen, e.storeSrv.Serve); err != nil {
		return err
	}
	if e.rshards, err = cluster.DialTCP(addrs, cluster.Options{}); err != nil {
		return err
	}
	e.rstore, err = cluster.DialStoreTCP(e.storeSrv.Addr().String(), cluster.Options{})
	return err
}

func (e *crawlEnv) frontierDir(i int) string {
	return filepath.Join(e.dir, fmt.Sprintf("frontier-%d", i))
}
func (e *crawlEnv) walDir(i int) string { return filepath.Join(e.dir, fmt.Sprintf("wal-%d", i)) }
func (e *crawlEnv) storeDir() string    { return filepath.Join(e.dir, "store") }

func (e *crawlEnv) diskDirs() []string {
	dirs := []string{e.storeDir()}
	for i := range e.shardSrvs {
		dirs = append(dirs, e.frontierDir(i), e.walDir(i))
	}
	return dirs
}

// stopCluster closes clients, then servers (the WAL close writes the final
// snapshot, the store close flushes), and waits for the accept loops.
func (e *crawlEnv) stopCluster() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if e.rshards != nil {
		keep(e.rshards.Close())
		e.rshards = nil
	}
	if e.rstore != nil {
		keep(e.rstore.Close())
		e.rstore = nil
	}
	for i, srv := range e.shardSrvs {
		keep(srv.Close())
		keep(srv.CloseWAL())
		keep(e.fronts[i].Close())
	}
	e.shardSrvs, e.fronts = nil, nil
	if e.storeSrv != nil {
		keep(e.storeSrv.Close())
		e.storeSrv = nil
	}
	e.serving.Wait()
	return first
}

func (e *crawlEnv) close() error {
	var err error
	if e.crawler != nil {
		err = e.crawler.Close()
	}
	if e.sh != nil && e.rstore != nil {
		// Drops the ephemeral shadow generation on the store server.
		if cerr := e.sh.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := e.stopCluster(); err == nil {
		err = cerr
	}
	if e.reopened != nil {
		if cerr := e.reopened.Close(); err == nil {
			err = cerr
		}
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// digestCollection scans a collection in URL order, checks each record is
// self-consistent with the generator's format, and hashes (URL, checksum,
// fetched-at, version) into the digest the runs are compared by.
func digestCollection(coll store.Reader) (digest string, n int, problems []string) {
	h := sha256.New()
	var num [8]byte
	prev := ""
	bad := func(format string, args ...any) {
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	err := coll.Scan(func(rec store.PageRecord) bool {
		n++
		if rec.URL <= prev {
			bad("scan out of order: %q after %q", rec.URL, prev)
		}
		prev = rec.URL
		// The generator's checksum is FNV-1a of "url#version", and a body
		// opens with a header naming all three.
		want := fnv.New64a()
		want.Write([]byte(rec.URL + "#" + strconv.Itoa(rec.Version)))
		if want.Sum64() != rec.Checksum {
			bad("%s: checksum %x does not belong to version %d", rec.URL, rec.Checksum, rec.Version)
		}
		head := fmt.Sprintf("<html><head><title>%s v%d</title></head><body>\n<h1>Synthetic page %s</h1>\n<p>revision %d; checksum %016x</p>\n",
			rec.URL, rec.Version, rec.URL, rec.Version, rec.Checksum)
		if !bytes.HasPrefix(rec.Content, []byte(head)) {
			bad("%s: stored body does not match its metadata", rec.URL)
		}
		h.Write([]byte(rec.URL))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(num[:], rec.Checksum)
		h.Write(num[:])
		binary.LittleEndian.PutUint64(num[:], math.Float64bits(rec.FetchedAt))
		h.Write(num[:])
		binary.LittleEndian.PutUint64(num[:], uint64(rec.Version))
		h.Write(num[:])
		return true
	})
	if err != nil {
		bad("scan: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil)), n, problems
}

func (e *crawlEnv) measure() (*pass, error) {
	ps := newPass()
	var obs0 promSamples
	var sampler *tierSampler
	if e.tr != nil {
		obs0 = scrapeObs()
		sampler = startTierSampler(e.fronts)
	}
	runtime.GC()
	var perPageUS []float64
	if e.tr != nil {
		e.tr.start()
	}
	start := sampleProc()
	for d := crawlSliceDays; d <= e.days+1e-9; d += crawlSliceDays {
		t0, f0 := time.Now(), e.crawler.Metrics().Fetches
		if err := e.crawler.RunUntil(d); err != nil {
			return nil, fmt.Errorf("crawl to day %v: %w", d, err)
		}
		if n := e.crawler.Metrics().Fetches - f0; n > 0 {
			perPageUS = append(perPageUS, float64(time.Since(t0).Microseconds())/float64(n))
		}
	}
	end := sampleProc()
	var obs1 promSamples
	if e.tr != nil {
		e.tr.finish()
		obs1 = scrapeObs() // before the checks below add their own traffic
	}
	sampler.stop()

	m := e.crawler.Metrics()
	ps.attempted = m.Fetches
	ps.setWindow(start, end, m.Fetches)
	ps.detail.Op = summarize(perPageUS, crawlTailLimit)
	ps.e2e["op_p50_us"] = ps.detail.Op.P50
	ps.detail.Fetches = m.Fetches
	if e.p.workload == crawlClusterDisk {
		e.clusterUsage(ps)
	}

	// Output checks, untimed from here on.
	digest, n, problems := digestCollection(e.crawler.Collection())
	ps.detail.Digest, ps.detail.Records = digest, n
	ps.problems = append(ps.problems, problems...)
	if n == 0 || n > crawlCollection {
		ps.problem("collection holds %d records, want 1..%d", n, crawlCollection)
	}
	frontierLen := e.crawler.CollUrls().Len()
	if frontierLen != n {
		// Every collection page is queued for its next visit, and
		// nothing else is.
		ps.problem("frontier holds %d URLs but the collection %d", frontierLen, n)
	}

	l := ps.layer
	l["crawl.fetches"] = float64(m.Fetches)
	l["core.rank_passes"] = float64(m.RankPasses)
	l["frontier.len_end"] = float64(frontierLen)
	if e.tr != nil {
		e.layerMetrics(ps, promDelta(obs0, obs1), sampler, start, end)
		t0 := time.Now()
		if _, _, err := pagerank.Pages(e.crawler.Graph().Snapshot(), pagerank.Options{Damping: 0.9}); err != nil {
			return nil, err
		}
		l["pagerank.pass_s"] = time.Since(t0).Seconds()
	}
	if e.p.workload == crawlClusterDisk {
		if err := e.clusterChecks(ps, digest, n, frontierLen); err != nil {
			return nil, err
		}
	}

	// Freshness and age against the simulated web's ground truth at the
	// final day. Last, because the oracle advances the web.
	ev := core.Evaluator{Web: e.web}
	fresh, err := ev.Freshness(e.freshnessView(), e.days, crawlCollection)
	if err != nil {
		return nil, err
	}
	age, err := ev.AvgAge(e.freshnessView(), e.days)
	if err != nil {
		return nil, err
	}
	l["crawl.freshness_end"], l["crawl.age_end_days"] = fresh, age
	ps.detail.Freshness, ps.detail.AgeDays = fresh, age
	if fresh <= 0 || fresh > 1 {
		ps.problem("freshness %v out of range", fresh)
	}
	return ps, nil
}

// freshnessView is the collection the evaluator scans: the crawler's, or
// for crawl_cluster_disk (whose servers are closed by then) the reopened
// directory.
func (e *crawlEnv) freshnessView() store.Collection {
	if e.reopened != nil {
		return e.reopened
	}
	return e.crawler.Collection()
}
