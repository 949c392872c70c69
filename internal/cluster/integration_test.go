package cluster_test

import (
	"testing"

	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/simweb"
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
	rs, err := cluster.Loopback(servers, cluster.Options{})
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
