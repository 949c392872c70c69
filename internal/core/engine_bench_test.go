package core

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/obs"
	"webevolve/internal/simweb"
	"webevolve/internal/store"
	"webevolve/internal/webgraph"
)

// benchWeb is the shared simulated web of the engine benchmarks.
func benchWeb(b *testing.B) *simweb.Web {
	b.Helper()
	w, err := simweb.New(simweb.Config{
		Seed: 42,
		SitesPerDomain: map[simweb.Domain]int{
			simweb.Com: 12, simweb.Edu: 6, simweb.NetOrg: 3, simweb.Gov: 3,
		},
		PagesPerSite: 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// cpuTime is the process's own user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// benchmarkEngine measures end-to-end crawl throughput of the engine
// against a simulated web served through a fixed per-fetch latency
// (the regime where parallel CrawlModules pay off — real crawls are
// network-bound). With a latency, ns/op is mostly the simulated waits,
// so it also reports cpu_us/page: the process's CPU time over the
// crawls (servers on loopback included) per page, which moves when the
// engine's own work does, and live_B/page: the live heap after a GC at
// the end of the timed crawls (the last crawl still held) over its
// collection's pages. newFrontier and newStore, if non-nil, build a
// remote frontier and a remote store per iteration; with a store the
// pages carry their bodies, as a crawl that keeps a repository does.
func benchmarkEngine(b *testing.B, workers, shards int, delay time.Duration,
	newFrontier func(b *testing.B) frontier.ShardSet, newStore func(b *testing.B) *cluster.RemoteStore) {
	b.Helper()
	var pages int64
	var wireBytes int64
	var elapsed, cpu time.Duration
	var c *Crawler
	exchanges, rounds := roundExchanges.Value(), engineRounds.Value()
	for i := 0; i < b.N; i++ {
		w := benchWeb(b)
		cfg := Config{
			Seeds:          w.RootURLs(),
			CollectionSize: 900,
			PagesPerDay:    900,
			CycleDays:      5,
			RankEveryDays:  2,
			Freq:           VariableFreq,
			Estimator:      EstimatorEP,
			Workers:        workers,
			Frontier:       frontier.NewSharded(shards),
			DispatchBatch:  8 * workers,
		}
		if newFrontier != nil {
			cfg.Frontier = newFrontier(b)
		}
		sim := fetch.NewSimFetcher(w)
		var f fetch.Fetcher = sim
		if delay > 0 {
			f = fetch.Delayed{Base: sim, Delay: delay}
		}
		sh := store.NewShadowedMem()
		if newStore != nil {
			sim.WithContent, cfg.StoreContent = true, true
			var err error
			if sh, err = newStore(b).Shadowed(); err != nil {
				b.Fatal(err)
			}
		}
		var err error
		if c, err = NewWithStore(cfg, f, sh); err != nil {
			b.Fatal(err)
		}
		start, cpu0 := time.Now(), cpuTime()
		if err := c.RunUntil(4); err != nil {
			b.Fatal(err)
		}
		elapsed, cpu = elapsed+time.Since(start), cpu+cpuTime()-cpu0
		pages += c.Metrics().Fetches
		if i == b.N-1 {
			b.StopTimer()
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/float64(c.Collection().Len()), "live_B/page")
			b.StartTimer()
		}
		if err := sh.Close(); err != nil {
			b.Fatal(err)
		}
		if wm, ok := cfg.Frontier.(wireMeter); ok {
			in, out := wm.WireBytes()
			wireBytes += in + out
		}
	}
	b.ReportMetric(float64(pages)/elapsed.Seconds(), "pages/s")
	b.ReportMetric(float64(pages)/float64(b.N), "fetches/run")
	b.ReportMetric(float64(cpu.Microseconds())/float64(pages), "cpu_us/page")
	if wireBytes > 0 {
		// Bytes per page crawled, both directions summed — the baseline
		// the ROADMAP's "shrink the wire" item moves against
		// (wireB_per_page in BENCH_engine.json).
		b.ReportMetric(float64(wireBytes)/float64(pages), "wireB/page")
	}
	if newFrontier != nil {
		// opRound frames sent per dispatch round, all servers summed:
		// how many rounds one exchange with the cluster feeds.
		b.ReportMetric(float64(roundExchanges.Value()-exchanges)/float64(engineRounds.Value()-rounds), "exch/round")
	}
}

// roundExchanges counts the opRound frames the process's cluster
// clients completed (the client ops family, op "round").
var roundExchanges = obs.Default.CounterVec("webevolve_cluster_client_ops_total",
	"completed client wire ops by op name", "op").With("round")

// wireMeter is the wire-byte accounting surface of the remote frontier
// and store clients (cluster.RemoteShards, cluster.RemoteStore).
type wireMeter interface {
	WireBytes() (in, out int64)
}

// BenchmarkEngine is the canonical engine benchmark: 8 workers at a
// 200µs simulated fetch latency.
func BenchmarkEngine(b *testing.B) {
	benchmarkEngine(b, 8, 32, 200*time.Microsecond, nil, nil)
}

// BenchmarkEngineRemote is BenchmarkEngine with the frontier behind
// loopback shard servers: the batched round protocol (at most one
// opRound trip per server per dispatch round, and fewer while commits
// wait on an exact candidate cache — exch/round) must keep remote
// throughput within 2x of local, where per-URL pops used to cost
// 2.2-3.2x.
func BenchmarkEngineRemote(b *testing.B) {
	for _, servers := range []int{1, 2} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			benchmarkEngine(b, 8, 32, 200*time.Microsecond,
				func(b *testing.B) frontier.ShardSet {
					return loopbackShards(b, servers, 32/servers)
				}, nil)
		})
	}
}

// BenchmarkEngineRemoteStore has both of a cluster round's exchanges in
// one benchmark: the frontier behind two loopback shard servers and the
// collection behind a loopback disk store server, with a free fetcher,
// so the round's cost is the opRound commit plus the PutBatch. Run in
// series they add; the content stage overlaps them.
func BenchmarkEngineRemoteStore(b *testing.B) {
	benchmarkEngine(b, 8, 32, 0,
		func(b *testing.B) frontier.ShardSet { return loopbackShards(b, 2, 16) },
		func(b *testing.B) *cluster.RemoteStore {
			srv := cluster.NewDiskStoreServer(b.TempDir())
			rs, err := cluster.LoopbackStore(srv, cluster.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				if err := rs.Err(); err != nil {
					b.Fatal(err)
				}
				rs.Close()
				srv.Close()
			})
			return rs
		})
}

// loopbackShards builds an in-process shard-server cluster over
// net.Pipe and returns its client.
func loopbackShards(b *testing.B, n, shardsEach int) frontier.ShardSet {
	b.Helper()
	servers := make([]*cluster.ShardServer, n)
	for i := range servers {
		servers[i] = cluster.NewShardServer(frontier.NewSharded(shardsEach))
	}
	rs, err := cluster.Loopback(servers, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := rs.Err(); err != nil {
			b.Fatal(err)
		}
		rs.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	return rs
}

// BenchmarkCrawlEngineWorkers compares 1-worker vs N-worker crawls over
// the same simulated web at a 200µs simulated fetch latency.
func BenchmarkCrawlEngineWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkEngine(b, workers, 32, 200*time.Microsecond, nil, nil)
		})
	}
}

// BenchmarkCrawlEngineZeroLatency pins down the dispatch overhead: with
// a free fetcher there is nothing to hide, so multi-worker throughput
// should stay within a small factor of single-worker throughput.
func BenchmarkCrawlEngineZeroLatency(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkEngine(b, workers, 32, 0, nil, nil)
		})
	}
}

// BenchmarkEngineSkewedShards is the satellite skew case: only two
// frontier shards, so the pre-pipelining dispatcher (which grouped
// fetch batches by shard) could never keep more than two workers busy.
// The dispatcher now groups by site and chains per-site order across
// rounds, so 8 workers scale with the number of *sites*, not shards.
func BenchmarkEngineSkewedShards(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkEngine(b, workers, 2, 200*time.Microsecond, nil, nil)
		})
	}
}

// BenchmarkRankingPass times one full RankingModule pass — PageRank
// over the captured graph, the refinement decision, and the revisit-plan
// rebuild it leaves running, joined — on the benchmark's crawl shape
// (270 sites of 60 pages, a 10,000-page collection, variable frequency)
// twenty virtual days in, when most of the collection's rates are
// estimates rather than the prior.
func BenchmarkRankingPass(b *testing.B) {
	w, err := simweb.New(simweb.PaperScaleConfig(1999, 60))
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{
		Seeds:          w.RootURLs(),
		CollectionSize: 10000,
		PagesPerDay:    10000,
		CycleDays:      5,
		RankEveryDays:  5,
		Freq:           VariableFreq,
		Estimator:      EstimatorEP,
		Workers:        2,
		Frontier:       frontier.NewSharded(32),
		DispatchBatch:  16,
	}, fetch.NewSimFetcher(w))
	if err != nil {
		b.Fatal(err)
	}
	days := 20.0
	if testing.Short() {
		days = 6 // a smoke run: one pass over a part-filled collection
	}
	if err := c.RunUntil(days); err != nil {
		b.Fatal(err)
	}
	// A pass begins at the content stage's barrier, which exists only
	// inside RunUntil; give it an idle stage to find.
	c.content = c.startContent()
	defer c.content.stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.rankingPass(); err != nil {
			b.Fatal(err)
		}
		if err := c.joinRebuild(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.optimal.PlanSize()), "plan-pages")
}

// BenchmarkCrawlLinkState times the crawl's link state — the page graph
// and the URL table it interns into, which is the paper's AllUrls, as
// the content stage feeds them — taking in the link list of every
// window page of the paper-scale web (270 sites of 60 pages) on each of
// five revisit days, in site and window order, into an empty graph on a
// fresh URL table, as a crawler builds them. heap_B_per_link is the
// live heap that state holds after the last iteration, over the
// distinct (page, link) pairs fed.
func BenchmarkCrawlLinkState(b *testing.B) {
	pages, links := windowLinkLists(b)
	var g *webgraph.Graph
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = webgraph.New()
		for _, p := range pages {
			g.SetLinks(p.url, p.links)
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(links), "heap_B_per_link")
	runtime.KeepAlive(pages)
	runtime.KeepAlive(g)
}

// fetchedLinks is one page's links as a fetch found them.
type fetchedLinks struct {
	url   string
	links []string
}

// windowLinkLists fetches every window page of the paper-scale web on
// days 0, 3, 6, 9 and 12 and returns their link lists with the number
// of distinct (page, link) pairs among them.
func windowLinkLists(b *testing.B) ([]fetchedLinks, int) {
	w, err := simweb.New(simweb.PaperScaleConfig(1999, 60))
	if err != nil {
		b.Fatal(err)
	}
	var pages []fetchedLinks
	pairs := map[[2]string]struct{}{}
	for _, day := range []float64{0, 3, 6, 9, 12} {
		for _, s := range w.Sites() {
			for _, u := range s.WindowURLs(day) {
				snap, err := w.FetchMeta(u, day)
				if err != nil {
					b.Fatal(err)
				}
				pages = append(pages, fetchedLinks{u, snap.Links})
				for _, l := range snap.Links {
					pairs[[2]string{u, l}] = struct{}{}
				}
			}
		}
	}
	return pages, len(pairs)
}
