package cluster_test

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/registry"
)

// memCluster is a registry-driven shard cluster whose members are
// in-process servers reached over net.Pipe, with the registry itself
// behind a real HTTP test server — the full membership stack minus
// TCP.
type memCluster struct {
	reg     *registry.Server
	client  *registry.Client
	servers map[string]*cluster.ShardServer
	// spillRoot, when set, puts every member's frontier on the disk
	// tier (one spill dir per address) with a tiny resident budget.
	spillRoot string
}

func newMemCluster(t testing.TB) *memCluster {
	t.Helper()
	mc := &memCluster{
		reg:     registry.NewServer(0), // default TTL; nothing expires mid-test
		servers: map[string]*cluster.ShardServer{},
	}
	ts := httptest.NewServer(mc.reg.Handler())
	t.Cleanup(ts.Close)
	mc.client = registry.NewClient(ts.URL)
	return mc
}

// addServer starts an in-process shard server under the given fake
// address and registers it. Registration against a non-empty active
// set parks the join as pending — the crawl client completes it.
func (mc *memCluster) addServer(t testing.TB, addr string, shards int) {
	fr := frontier.NewSharded(shards)
	if mc.spillRoot != "" {
		var err error
		fr, err = frontier.OpenSharded(frontier.StoreConfig{
			Shards:         shards,
			SpillDir:       filepath.Join(mc.spillRoot, strings.ReplaceAll(addr, ":", "_")),
			ResidentBudget: 32,
		})
		if err != nil {
			panic(err) // callable from crawl worker goroutines, no t.Fatal
		}
	}
	srv := cluster.NewShardServer(fr)
	mc.servers[addr] = srv
	if t != nil {
		t.Cleanup(func() { srv.Close() })
	}
	if _, _, err := mc.client.Register(registry.Member{
		Kind: registry.KindShard, Addr: addr, Shards: shards,
	}); err != nil {
		panic(err) // callable from crawl worker goroutines, no t.Fatal
	}
}

// dial mounts the cluster through the registry; a negative poll
// interval reads the registry at every round boundary, so membership
// changes are picked up deterministically.
func (mc *memCluster) dial(t testing.TB) *cluster.RemoteShards {
	t.Helper()
	rs, err := cluster.DialMembership(mc.client, func(m registry.Member) cluster.Dialer {
		srv, ok := mc.servers[m.Addr]
		if !ok {
			t.Fatalf("no server for member %s", m.Addr)
		}
		return srv.Pipe
	}, cluster.WithTransport(cluster.Options{}, 0, -1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

// runInvariance runs the same simulated crawl twice — once on local
// in-process shards, once on the registry-driven cluster with `mut`
// firing at the fetchAt-th fetch — and requires bit-identical results.
func runInvariance(t *testing.T, mc *memCluster, fetchAt int64, mut func()) {
	t.Helper()
	run := func(fr frontier.ShardSet, wrap func(fetch.Fetcher) fetch.Fetcher) (core.Metrics, []string) {
		w, f := testWeb(t, 29)
		cfg := baseConfig(w)
		cfg.Workers = 4
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

	lm, lu := run(nil, nil)
	rs := mc.dial(t)
	fired := &crashingFetcher{at: fetchAt, crash: mut}
	rm, ru := run(rs, func(inner fetch.Fetcher) fetch.Fetcher {
		fired.inner = inner
		return fired
	})
	if err := rs.Err(); err != nil {
		t.Fatalf("crawl did not survive the membership change: %v", err)
	}
	if fired.n.Load() < fetchAt {
		t.Fatalf("membership hook never fired: %d fetches < %d", fired.n.Load(), fetchAt)
	}
	if rm != lm {
		t.Fatalf("crawl diverged across membership change:\ncluster: %+v\nlocal:   %+v", rm, lm)
	}
	if len(ru) != len(lu) {
		t.Fatalf("collections diverge: %d vs %d", len(ru), len(lu))
	}
	for i := range ru {
		if ru[i] != lu[i] {
			t.Fatalf("collection diverges at %d: %s vs %s", i, ru[i], lu[i])
		}
	}
	ms, err := mc.client.Membership()
	if err != nil {
		t.Fatal(err)
	}
	if ms.Migrating {
		t.Fatalf("migration never completed: %+v", ms)
	}
}

// TestJoinMidCrawlInvariance is the tentpole acceptance test: a second
// shard server registers mid-crawl, the crawl client migrates the
// moved partitions onto it at its next quiescent round boundary, and
// the crawl finishes bit-identical to the same crawl on an
// uninterrupted local frontier.
func TestJoinMidCrawlInvariance(t *testing.T) {
	mc := newMemCluster(t)
	mc.addServer(t, "shard-1:7070", 8)
	runInvariance(t, mc, 150, func() {
		mc.addServer(nil, "shard-2:7070", 8)
	})
	ms, err := mc.client.Membership()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Shard()) != 2 {
		t.Fatalf("joiner not active after crawl: %+v", ms)
	}
}

// TestLeaveMidCrawlInvariance is the other half: a member of a
// two-server cluster announces a graceful leave mid-crawl; its
// partitions migrate to the survivor and the crawl stays
// bit-identical.
func TestLeaveMidCrawlInvariance(t *testing.T) {
	mc := newMemCluster(t)
	mc.addServer(t, "shard-1:7070", 8)
	mc.addServer(t, "shard-2:7070", 8) // parked pending; adopted at dial
	runInvariance(t, mc, 150, func() {
		if _, err := mc.client.Leave("shard-1:7070"); err != nil {
			panic(err)
		}
	})
	ms, err := mc.client.Membership()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Shard()) != 1 || ms.Shard()[0].Addr != "shard-2:7070" {
		t.Fatalf("leaver still active after crawl: %+v", ms)
	}
}

// TestJoinMidCrawlInvarianceDiskTier repeats the join while every
// member's frontier sits on the disk tier: the chunked partition
// export streams the joiner's entries out of the spill logs without
// materializing the queues, and the crawl must stay bit-identical.
func TestJoinMidCrawlInvarianceDiskTier(t *testing.T) {
	mc := newMemCluster(t)
	mc.spillRoot = t.TempDir()
	mc.addServer(t, "shard-1:7070", 8)
	runInvariance(t, mc, 150, func() {
		mc.addServer(nil, "shard-2:7070", 8)
	})
}

// TestLeaveMidCrawlInvarianceDiskTier repeats the graceful leave on
// disk-backed members.
func TestLeaveMidCrawlInvarianceDiskTier(t *testing.T) {
	mc := newMemCluster(t)
	mc.spillRoot = t.TempDir()
	mc.addServer(t, "shard-1:7070", 8)
	mc.addServer(t, "shard-2:7070", 8) // parked pending; adopted at dial
	runInvariance(t, mc, 150, func() {
		if _, err := mc.client.Leave("shard-1:7070"); err != nil {
			panic(err)
		}
	})
}
