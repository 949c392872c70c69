package cluster_test

import (
	"fmt"
	"testing"

	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/simweb"
)

// BenchmarkApplyRoundRemote is the perf ledger's wire round trip row:
// one opRound exchange per server per op — 64 pops taken from the
// previous exchange's candidates, their 64 reschedules and a
// 64-candidate peek per server (the client multiplies the peekMax it
// is given by ExchangeRounds) — over a 100,000-entry queue on 1 and 2
// loopback shard servers, reporting the wire bytes of an exchange.
func BenchmarkApplyRoundRemote(b *testing.B) {
	const (
		entries = 100_000
		per     = 64
	)
	seed := make([]frontier.Entry, entries)
	for i := range seed {
		// Dues spread over a hundred days with the crawl's coarse
		// priorities, over 270 sites.
		seed[i] = frontier.Entry{
			URL: fmt.Sprintf("http://site%03d.com/p%06d", i%270, i),
			Due: float64(i*7919%entries) / 1000, Priority: float64(i % 3),
		}
	}
	for _, servers := range []int{1, 2} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			rs := loopbackCluster(b, servers, 16/servers)
			rs.ApplyRound(nil, nil, seed, 0)
			cands, _, _, _ := rs.ApplyRound(nil, nil, nil, per/cluster.ExchangeRounds)
			pops := make([]string, 0, per)
			pushes := make([]frontier.Entry, 0, per)
			in0, out0 := rs.WireBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pops, pushes = pops[:0], pushes[:0]
				for _, e := range cands[:per] {
					pops = append(pops, e.URL)
					// Back to the queue's tail, as a steady crawl's revisit.
					pushes = append(pushes, frontier.Entry{URL: e.URL, Due: e.Due + 100, Priority: e.Priority})
				}
				cands, _, _, _ = rs.ApplyRound(pops, nil, pushes, per/cluster.ExchangeRounds)
			}
			b.StopTimer()
			if err := rs.Err(); err != nil {
				b.Fatal(err)
			}
			in, out := rs.WireBytes()
			b.ReportMetric(float64(in-in0+out-out0)/float64(b.N), "wireB/round")
		})
	}
}

func benchWeb(b *testing.B) *simweb.Web {
	w, err := simweb.New(simweb.Config{
		Seed: 7,
		SitesPerDomain: map[simweb.Domain]int{
			simweb.Com: 6, simweb.Edu: 3, simweb.NetOrg: 2, simweb.Gov: 1,
		},
		PagesPerSite: 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkCrawlPagesPerSec runs the full simulated crawl engine and
// reports pages/s with in-process shards vs the frontier behind 1, 2,
// and 4 loopback shard servers — the remote-claim overhead measured
// end to end.
func BenchmarkCrawlPagesPerSec(b *testing.B) {
	run := func(b *testing.B, fr frontier.ShardSet) {
		var pages int64
		for i := 0; i < b.N; i++ {
			w := benchWeb(b)
			cfg := core.Config{
				Seeds:          w.RootURLs(),
				CollectionSize: 300,
				PagesPerDay:    150,
				CycleDays:      4,
				RankEveryDays:  2,
				Workers:        4,
				Frontier:       fr,
			}
			c, err := core.New(cfg, fetch.NewSimFetcher(w))
			if err != nil {
				b.Fatal(err)
			}
			if err := c.RunUntil(10); err != nil {
				b.Fatal(err)
			}
			pages += c.Metrics().Fetches
		}
		b.ReportMetric(float64(pages)/b.Elapsed().Seconds(), "pages/s")
	}
	b.Run("local", func(b *testing.B) { run(b, nil) })
	for _, servers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			var pages int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rs := loopbackCluster(b, servers, 16/servers)
				w := benchWeb(b)
				cfg := core.Config{
					Seeds:          w.RootURLs(),
					CollectionSize: 300,
					PagesPerDay:    150,
					CycleDays:      4,
					RankEveryDays:  2,
					Workers:        4,
					Frontier:       rs,
				}
				c, err := core.New(cfg, fetch.NewSimFetcher(w))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := c.RunUntil(10); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := rs.Err(); err != nil {
					b.Fatal(err)
				}
				pages += c.Metrics().Fetches
				b.StartTimer()
			}
			b.ReportMetric(float64(pages)/b.Elapsed().Seconds(), "pages/s")
		})
	}
}
