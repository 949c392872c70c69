package cluster_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/simweb"
	"webevolve/internal/store"
)

func testWeb(t testing.TB, seed int64) (*simweb.Web, *fetch.SimFetcher) {
	t.Helper()
	w, err := simweb.New(simweb.Config{
		Seed: seed,
		SitesPerDomain: map[simweb.Domain]int{
			simweb.Com: 3, simweb.Edu: 2, simweb.NetOrg: 1, simweb.Gov: 1,
		},
		PagesPerSite: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, fetch.NewSimFetcher(w)
}

func baseConfig(w *simweb.Web) core.Config {
	return core.Config{
		Seeds:          w.RootURLs(),
		CollectionSize: 120,
		PagesPerDay:    60,
		CycleDays:      4,
		BatchDays:      1,
		RankEveryDays:  2,
		Estimator:      core.EstimatorEP,
	}
}

// loopbackCluster builds n in-process shard servers and a RemoteShards
// client over net.Pipe.
func loopbackCluster(t testing.TB, n, shardsEach int) *cluster.RemoteShards {
	t.Helper()
	servers := make([]*cluster.ShardServer, n)
	for i := range servers {
		servers[i] = cluster.NewShardServer(frontier.NewSharded(shardsEach))
	}
	rs, err := cluster.Loopback(servers, cluster.Options{PolitenessDays: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rs.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	return rs
}

// loopbackDiskCluster is loopbackCluster with disk-backed frontiers
// squeezed by a small resident budget, so the wire protocol runs over
// the spill tier.
func loopbackDiskCluster(t testing.TB, n, shardsEach, budget int) *cluster.RemoteShards {
	t.Helper()
	servers := make([]*cluster.ShardServer, n)
	for i := range servers {
		fr, err := frontier.OpenSharded(frontier.StoreConfig{
			Shards: shardsEach, SpillDir: t.TempDir(), ResidentBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fr.Close() })
		servers[i] = cluster.NewShardServer(fr)
	}
	rs, err := cluster.Loopback(servers, cluster.Options{PolitenessDays: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rs.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	return rs
}

// TestDistributedWorkerCountInvariance extends the engine's core
// contract to the distributed path: a simulated crawl whose frontier
// lives behind the wire protocol — on one, two, or four shard servers,
// at any worker count — produces bit-identical results to the same
// crawl with in-process shards.
func TestDistributedWorkerCountInvariance(t *testing.T) {
	type outcome struct {
		m    core.Metrics
		urls []string
		all  int
	}
	run := func(workers int, fr frontier.ShardSet) outcome {
		w, f := testWeb(t, 21)
		cfg := baseConfig(w)
		cfg.Workers = workers
		cfg.Frontier = fr
		c, err := core.New(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntil(15); err != nil {
			t.Fatal(err)
		}
		return outcome{m: c.Metrics(), urls: c.Collection().URLs(), all: c.AllUrls().Len()}
	}
	ref := run(1, nil) // in-process shards
	for _, v := range []struct{ workers, servers, shardsEach int }{
		{1, 1, 16},
		{4, 2, 8},
		{8, 4, 4},
	} {
		rs := loopbackCluster(t, v.servers, v.shardsEach)
		got := run(v.workers, rs)
		if err := rs.Err(); err != nil {
			t.Fatalf("workers=%d servers=%d: %v", v.workers, v.servers, err)
		}
		if got.m != ref.m {
			t.Fatalf("workers=%d servers=%d: metrics diverge\nremote: %+v\nlocal:  %+v",
				v.workers, v.servers, got.m, ref.m)
		}
		if got.all != ref.all {
			t.Fatalf("workers=%d servers=%d: AllUrls %d vs %d", v.workers, v.servers, got.all, ref.all)
		}
		if len(got.urls) != len(ref.urls) {
			t.Fatalf("workers=%d servers=%d: collection %d vs %d",
				v.workers, v.servers, len(got.urls), len(ref.urls))
		}
		for i := range got.urls {
			if got.urls[i] != ref.urls[i] {
				t.Fatalf("workers=%d servers=%d: collection diverges at %d: %s vs %s",
					v.workers, v.servers, i, got.urls[i], ref.urls[i])
			}
		}
	}

	// The same contract with the servers' frontiers on the disk tier: a
	// resident budget far below the queue depth keeps the crawl running
	// through the spill logs, and the results must still be bit-identical.
	rsDisk := loopbackDiskCluster(t, 2, 8, 48)
	got := run(4, rsDisk)
	if err := rsDisk.Err(); err != nil {
		t.Fatalf("disk tier: %v", err)
	}
	if got.m != ref.m {
		t.Fatalf("disk tier: metrics diverge\nremote: %+v\nlocal:  %+v", got.m, ref.m)
	}
	if got.all != ref.all {
		t.Fatalf("disk tier: AllUrls %d vs %d", got.all, ref.all)
	}
	if len(got.urls) != len(ref.urls) {
		t.Fatalf("disk tier: collection %d vs %d", len(got.urls), len(ref.urls))
	}
	for i := range got.urls {
		if got.urls[i] != ref.urls[i] {
			t.Fatalf("disk tier: collection diverges at %d: %s vs %s", i, got.urls[i], ref.urls[i])
		}
	}
}

// crashingFetcher triggers a one-shot crash hook at the nth fetch —
// deterministically mid-crawl, unlike a timer.
type crashingFetcher struct {
	inner fetch.Fetcher
	n     atomic.Int64
	at    int64
	crash func()
	once  sync.Once
}

func (c *crashingFetcher) Fetch(url string, day float64) (fetch.Result, error) {
	if c.n.Add(1) == c.at {
		c.once.Do(c.crash)
	}
	return c.inner.Fetch(url, day)
}

// TestKillRestartInvariance is the resilience acceptance test in
// process form: mid-crawl, a WAL-backed shard server is hard-stopped
// (no graceful flush — the SIGKILL case) and a replacement is started
// from the same WAL directory on the same address. The client must
// ride the outage on its retry budget, and the crawl must complete
// bit-identical to the same crawl against an uninterrupted local
// frontier. scripts/cluster_smoke.sh repeats this across real shardd
// processes with a literal SIGKILL.
// The disk subtest runs the same crash with the server's frontier on
// the spill tier under a tiny resident budget — the disk-tier
// crash-safety coverage.
func TestKillRestartInvariance(t *testing.T) {
	t.Run("mem", func(t *testing.T) { testKillRestartInvariance(t, false) })
	t.Run("disk", func(t *testing.T) { testKillRestartInvariance(t, true) })
}

func testKillRestartInvariance(t *testing.T, diskTier bool) {
	dir := t.TempDir()
	spillRoot := t.TempDir()
	starts := 0
	// start returns its error: the crash hook runs it on a crawl worker
	// goroutine, where t.Fatal is not allowed.
	start := func(addr string) (*cluster.ShardServer, error) {
		fr := frontier.NewSharded(8)
		if diskTier {
			// Each incarnation gets a fresh spill dir: the WAL is the
			// durability plane and rebuilds the spill logs through Reset on
			// replay, so a replacement never depends on the crashed
			// process's logs (which may be torn, or on a lost disk).
			starts++
			var err error
			fr, err = frontier.OpenSharded(frontier.StoreConfig{
				Shards:         8,
				SpillDir:       filepath.Join(spillRoot, fmt.Sprintf("gen%d", starts)),
				ResidentBudget: 24,
			})
			if err != nil {
				return nil, err
			}
		}
		srv := cluster.NewShardServer(fr)
		if err := srv.OpenWAL(dir); err != nil {
			return nil, err
		}
		if err := srv.Listen(addr); err != nil {
			return nil, err
		}
		go srv.Serve() //nolint:errcheck — exits with ErrServerClosed on Close
		return srv, nil
	}
	srv, err := start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	var replacement *cluster.ShardServer
	t.Cleanup(func() {
		srv.Close()
		if replacement != nil {
			replacement.Close()
		}
	})

	rs, err := cluster.DialTCP([]string{addr}, cluster.WithTransport(cluster.Options{}, 2*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	run := func(workers int, fr frontier.ShardSet, wrap func(fetch.Fetcher) fetch.Fetcher) (core.Metrics, []string) {
		w, f := testWeb(t, 24)
		cfg := baseConfig(w)
		cfg.Workers = workers
		cfg.Frontier = fr
		var fetcher fetch.Fetcher = f
		if wrap != nil {
			fetcher = wrap(f)
		}
		c, err := core.New(cfg, fetcher)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntil(12); err != nil {
			t.Fatal(err)
		}
		return c.Metrics(), c.Collection().URLs()
	}

	lm, lu := run(4, nil, nil) // uninterrupted, in-process frontier
	restartErr := make(chan error, 1)
	rm, ru := run(4, rs, func(inner fetch.Fetcher) fetch.Fetcher {
		return &crashingFetcher{inner: inner, at: 150, crash: func() {
			srv.Close() // hard stop: no CloseWAL, no final snapshot
			var err error
			replacement, err = start(addr)
			restartErr <- err
		}}
	})
	select {
	case err := <-restartErr:
		if err != nil {
			t.Fatalf("restarting the killed server: %v", err)
		}
	default:
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("crawl did not survive the restart: %v", err)
	}
	if replacement == nil {
		t.Fatal("crash hook never fired; crawl too short to be killed mid-flight")
	}
	if rm != lm {
		t.Fatalf("kill-restart crawl diverged:\nkilled: %+v\nlocal:  %+v", rm, lm)
	}
	if len(ru) != len(lu) {
		t.Fatalf("collections diverge: %d vs %d", len(ru), len(lu))
	}
	for i := range ru {
		if ru[i] != lu[i] {
			t.Fatalf("collection diverges at %d: %s vs %s", i, ru[i], lu[i])
		}
	}
}

// TestDistributedBatchModeInvariance repeats the check for the
// batch-mode loop with a shadowed collection.
func TestDistributedBatchModeInvariance(t *testing.T) {
	run := func(fr frontier.ShardSet) (core.Metrics, []string) {
		w, f := testWeb(t, 22)
		cfg := baseConfig(w)
		cfg.Mode = core.Batch
		cfg.Update = core.Shadow
		cfg.Workers = 4
		cfg.Frontier = fr
		c, err := core.New(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntil(14); err != nil {
			t.Fatal(err)
		}
		return c.Metrics(), c.Collection().URLs()
	}
	lm, lu := run(nil)
	rm, ru := run(loopbackCluster(t, 2, 8))
	if lm != rm {
		t.Fatalf("batch-mode metrics diverge:\nremote: %+v\nlocal:  %+v", rm, lm)
	}
	if len(lu) != len(ru) {
		t.Fatalf("batch-mode collections diverge: %d vs %d", len(ru), len(lu))
	}
	for i := range lu {
		if lu[i] != ru[i] {
			t.Fatalf("batch-mode collection diverges at %d", i)
		}
	}
}

// TestDistributedClaimDispatch drives the wall-clock claim/release
// dispatcher the way cmd/webcrawl does, with its frontier behind the
// wire protocol: six workers claiming shards, pushing reschedules and
// releasing claims over two shard servers at once (the race detector's
// view of the client's pooled connections).
func TestDistributedClaimDispatch(t *testing.T) {
	w, f := testWeb(t, 23)
	rs := loopbackCluster(t, 2, 4)
	for _, u := range w.RootURLs() {
		rs.Push(u, 0, 0)
	}
	const now = 1.0
	mem := store.NewMem()
	var processed atomic.Int64
	err := core.DispatchClaims(core.ClaimDispatch{
		Workers: 6,
		Coll:    rs,
		Now:     func() float64 { return now },
		Work: func(url string) error {
			res, err := f.Fetch(url, now)
			if err != nil {
				return err
			}
			processed.Add(1)
			rs.Push(url, now+5, 0)
			for _, l := range res.Links {
				if !rs.Contains(l) {
					rs.Push(l, 0, 0)
				}
			}
			return mem.Put(store.PageRecord{URL: url, Checksum: res.Checksum, FetchedAt: now, Links: res.Links})
		},
		Release: func(shard int) { rs.Release(shard, now) },
		Gate:    func(dispatched, _ int64) bool { return dispatched < 40 },
		Idle: func(inflight int64, _ int) bool {
			if inflight == 0 {
				return false // drained
			}
			time.Sleep(100 * time.Microsecond)
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := processed.Load(); n == 0 || n > 40 {
		t.Fatalf("processed %d pages, want 1..40", n)
	}
	if int64(mem.Len()) != processed.Load() {
		t.Fatalf("stored %d records for %d fetches", mem.Len(), processed.Load())
	}
	if _, _, ok := rs.ClaimDue(now); ok && processed.Load() < 40 {
		t.Fatal("dispatch ended with the budget unspent and a shard still claimable")
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
}
