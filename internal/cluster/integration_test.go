package cluster_test

import (
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
	var fetched sync.Map // distinct URLs: the Contains-then-Push below can queue a URL a worker holds
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
			fetched.Store(url, true)
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
	distinct := 0
	fetched.Range(func(any, any) bool { distinct++; return true })
	if mem.Len() != distinct {
		t.Fatalf("stored %d records for %d fetched pages", mem.Len(), distinct)
	}
	if _, _, ok := rs.ClaimDue(now); ok && processed.Load() < 40 {
		t.Fatal("dispatch ended with the budget unspent and a shard still claimable")
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
}
