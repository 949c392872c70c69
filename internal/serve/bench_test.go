package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/store"
)

// benchPages is the repository size the serving benchmarks run over.
const benchPages = 512

// benchReaders is the concurrent-reader count for the QPS benchmarks —
// the serving plane's load target is ≥1k simultaneous readers.
const benchReaders = 1000

func benchRecord(i, gen int) store.PageRecord {
	return store.PageRecord{
		URL:       fmt.Sprintf("http://bench.site/page-%04d", i),
		Checksum:  uint64(gen)<<32 | uint64(i),
		FetchedAt: float64(gen) + float64(i)/benchPages,
		Content:   []byte(fmt.Sprintf("generation %d page %04d: the quick brown fox jumps over the lazy dog", gen, i)),
		Links:     []string{"http://bench.site/", fmt.Sprintf("http://bench.site/page-%04d", (i+1)%benchPages)},
	}
}

func fillBench(b *testing.B, coll store.Collection) {
	b.Helper()
	recs := make([]store.PageRecord, benchPages)
	for i := range recs {
		recs[i] = benchRecord(i, 0)
	}
	if err := coll.PutBatch(recs); err != nil {
		b.Fatal(err)
	}
}

// benchServeQPS drives benchReaders concurrent HTTP readers against a
// live server while crawl (if non-nil) keeps mutating the repository in
// the background — the serving plane under its actual load shape, not a
// sequential microbenchmark. Each b.N iteration sends one request from
// every reader; the metric that matters is the reported req/s.
func benchServeQPS(b *testing.B, src Source, crawl func(stop <-chan struct{})) {
	ts := httptest.NewServer(New(Config{Source: src}))
	defer ts.Close()
	// One shared transport with a bounded connection pool: 1000 readers
	// multiplex over ~256 sockets instead of exhausting fds.
	tr := &http.Transport{MaxIdleConnsPerHost: 256, MaxConnsPerHost: 256}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	stop := make(chan struct{})
	var crawlWG sync.WaitGroup
	if crawl != nil {
		crawlWG.Add(1)
		go func() {
			defer crawlWG.Done()
			crawl(stop)
		}()
	}

	// Readers pull one token per request from a shared queue; each b.N
	// iteration feeds one token per reader.
	var (
		readyWG sync.WaitGroup
		doneWG  sync.WaitGroup
		tick    = make(chan struct{}, benchReaders)
		readerE atomic.Int64
	)
	for r := 0; r < benchReaders; r++ {
		readyWG.Add(1)
		doneWG.Add(1)
		go func(r int) {
			readyWG.Done()
			defer doneWG.Done()
			url := ts.URL + "/v1/pages/" + fmt.Sprintf("http://bench.site/page-%04d", r%benchPages)
			for range tick {
				resp, err := client.Get(url)
				if err != nil {
					readerE.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					readerE.Add(1)
				}
			}
		}(r)
	}
	readyWG.Wait()

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchReaders; r++ {
			tick <- struct{}{}
		}
	}
	close(tick)
	doneWG.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	crawlWG.Wait()
	if n := readerE.Load(); n > 0 {
		b.Fatalf("%d reader errors", n)
	}
	b.ReportMetric(float64(b.N*benchReaders)/elapsed.Seconds(), "req/s")
	// How hard the background crawl republishes: every swap flushes the
	// hot-set cache, so this rate, not the backend, sets the hit ratio.
	if sh, ok := src.(*store.Shadowed); ok {
		b.ReportMetric(float64(sh.Swaps())/elapsed.Seconds(), "swaps/s")
	}
}

// shadowCrawl is the background mutator for the QPS benchmarks: write a
// fresh generation into the shadow, swap, repeat — readers live through
// repeated atomic republications while they serve.
func shadowCrawl(b *testing.B, sh *store.Shadowed) func(stop <-chan struct{}) {
	return func(stop <-chan struct{}) {
		for gen := 1; ; gen++ {
			for i := 0; i < benchPages; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := sh.Shadow().Put(benchRecord(i, gen)); err != nil {
					b.Errorf("shadow put: %v", err)
					return
				}
			}
			if _, err := sh.Swap(); err != nil {
				b.Errorf("swap: %v", err)
				return
			}
		}
	}
}

// BenchmarkServeQPSMem: 1000 concurrent readers over an in-memory
// shadowed repository with a live crawl swapping generations under
// them.
func BenchmarkServeQPSMem(b *testing.B) {
	sh := store.NewShadowedMem()
	defer sh.Close()
	fillBench(b, sh.Current())
	benchServeQPS(b, sh, shadowCrawl(b, sh))
}

// BenchmarkServeQPSDisk: the same load over log-structured disk
// collections.
func BenchmarkServeQPSDisk(b *testing.B) {
	dir := b.TempDir()
	gen := 0
	var mu sync.Mutex
	newShadow := func() (store.Collection, error) {
		mu.Lock()
		gen++
		g := gen
		mu.Unlock()
		return store.OpenDisk(filepath.Join(dir, fmt.Sprintf("gen%d", g)))
	}
	sh, err := store.NewShadowed(nil, newShadow)
	if err != nil {
		b.Fatal(err)
	}
	defer sh.Close()
	fillBench(b, sh.Current())
	benchServeQPS(b, sh, shadowCrawl(b, sh))
}

// BenchmarkServeQPSRemote: the repository lives behind a store server
// (loopback wire protocol); the HTTP server's every cache miss is a
// wire round trip, and a concurrent client keeps rewriting the
// collection through the same server.
func BenchmarkServeQPSRemote(b *testing.B) {
	srv := cluster.NewMemStoreServer()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	reads, err := cluster.DialStoreTCP(srv.Addr().String(), cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer reads.Close()
	writes, err := cluster.DialStoreTCP(srv.Addr().String(), cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer writes.Close()

	fillBench(b, writes.Collection("pages"))
	writeColl := writes.Collection("pages")
	benchServeQPS(b, Static(reads.Collection("pages")), func(stop <-chan struct{}) {
		for gen := 1; ; gen++ {
			for i := 0; i < benchPages; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := writeColl.Put(benchRecord(i, gen)); err != nil {
					b.Errorf("remote put: %v", err)
					return
				}
			}
		}
	})
}

// benchHotGet measures the single-page hot path without client or
// socket noise: the handler invoked directly, every request the same
// URL. The cached variant must win on both ns/op and allocs/op — that
// delta is what the hot-set cache buys.
func benchHotGet(b *testing.B, cacheEntries int) {
	dir := b.TempDir()
	disk, err := store.OpenDisk(filepath.Join(dir, "pages"))
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	fillBench(b, disk)
	srv := New(Config{Source: Static(disk), CacheEntries: cacheEntries})
	url := "/v1/pages/http://bench.site/page-0001"

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		for pb.Next() {
			rw := httptest.NewRecorder()
			rw.Body.Reset()
			srv.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				b.Errorf("status %d", rw.Code)
				return
			}
		}
	})
}

// BenchmarkServeHotGetCached / BenchmarkServeHotGetUncached: the same
// hot GET with and without the hot-set cache, over the disk backend
// (an uncached hit pays the segment read every time).
func BenchmarkServeHotGetCached(b *testing.B)   { benchHotGet(b, 0) }
func BenchmarkServeHotGetUncached(b *testing.B) { benchHotGet(b, -1) }
