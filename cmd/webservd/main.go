// Command webservd is the serving-plane daemon: the HTTP read API
// (internal/serve) over a crawled repository. It is the consumer-facing
// half the crawl exists for — webcrawl keeps the collection fresh,
// webservd serves it.
//
// Usage:
//
//	webcrawl -seeds https://example.com/ -dir ./crawl -pages 50
//	webservd -dir ./crawl -listen 127.0.0.1:8080
//	curl http://127.0.0.1:8080/v1/pages/https://example.com/
//	curl http://127.0.0.1:8080/v1/estimates/https://example.com/
//	curl 'http://127.0.0.1:8080/v1/pages?prefix=https://example.com/&limit=10'
//	curl 'http://127.0.0.1:8080/v1/freshness?lambda=0.5&cycle=1'
//
// With -dir, webservd serves the crawl directory's disk collection and
// answers /v1/estimates from its state.json change histories (the
// paper's EP estimator over the crawler's own observations). With
// -store-server, it instead fronts a collection hosted by a storerd
// daemon over the cluster wire protocol — every read a wire round
// trip, softened by the hot-set cache; estimates are unavailable there
// (the histories belong to the crawler's state, not the repository).
//
// The daemon is read-only by construction: internal/serve sees the
// repository through store.Reader, which has no write methods.
//
// With -listen :0 the kernel assigns a port; the bound address is
// printed on stdout and, with -addr-file, written to a file that
// orchestration scripts can wait on. The address file is removed on
// shutdown, so waiters never race onto a stale address from a previous
// run.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/crawlstate"
	"webevolve/internal/daemon"
	"webevolve/internal/obs"
	"webevolve/internal/serve"
	"webevolve/internal/store"
)

func main() {
	common := daemon.New("127.0.0.1:8080")
	dir := flag.String("dir", "", "crawl directory to serve (pages collection + state.json, as written by webcrawl)")
	storeServer := flag.String("store-server", "", "storerd endpoint hosting the collection (alternative to -dir)")
	collection := flag.String("collection", "pages", "collection name on the store server (with -store-server)")
	cacheEntries := flag.Int("cache-entries", 0, "hot-set cache entry bound (0: default 4096, negative: disable caching)")
	cacheBytes := flag.Int64("cache-bytes", 0, "hot-set cache byte bound (0: default 64 MiB)")
	flag.Parse()

	if (*dir == "") == (*storeServer == "") {
		fmt.Fprintln(os.Stderr, "webservd: exactly one of -dir or -store-server is required")
		flag.Usage()
		os.Exit(2)
	}
	topo, err := daemon.ParseTopology("", "", *storeServer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webservd:", err)
		os.Exit(2)
	}
	if err := run(common, *dir, topo, *collection, *cacheEntries, *cacheBytes); err != nil {
		daemon.Fatal("webservd", err)
	}
}

func run(common *daemon.Flags, dir string, topo cluster.Topology, collection string, cacheEntries int, cacheBytes int64) error {
	cfg := serve.Config{CacheEntries: cacheEntries, CacheBytes: cacheBytes}
	var reader store.Reader
	if dir != "" {
		disk, err := store.OpenDisk(filepath.Join(dir, "pages"))
		if err != nil {
			return err
		}
		defer disk.Close()
		reader = disk
		st, err := crawlstate.Load(filepath.Join(dir, "state.json"))
		if err != nil {
			return err
		}
		cfg.Epoch = st.Epoch
		cfg.Estimates = stateEstimates{st}
		fmt.Printf("webservd: serving crawl directory %s (%d pages, %d change histories)\n",
			dir, disk.Len(), len(st.Histories))
	} else {
		_, remote, err := topo.Dial(cluster.Options{})
		if err != nil {
			return err
		}
		defer remote.Close()
		coll := remote.Collection(collection)
		reader = coll
		fmt.Printf("webservd: serving collection %q from store server %s (%d pages)\n",
			collection, topo.StoreServer, coll.Len())
	}
	cfg.Source = serve.Static(reader)

	api := serve.New(cfg)
	ln, err := net.Listen("tcp", common.Listen)
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	fmt.Printf("webservd: serving on %s\n", addr)
	cleanup, err := common.Publish(addr)
	if err != nil {
		ln.Close()
		return err
	}
	defer cleanup()

	// Repository size as a live gauge; with -store-server each scrape
	// costs one wire round trip, same as the old ad-hoc stats line.
	obs.Default.GaugeFunc("webevolve_serve_pages",
		"pages in the served collection",
		func() float64 { return float64(reader.Len()) })
	stopDebug, err := common.ServeDebug("webservd")
	if err != nil {
		return err
	}
	defer stopDebug()

	httpSrv := &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}
	stopSig := daemon.OnShutdown(func(s os.Signal) {
		fmt.Printf("webservd: %v, shutting down\n", s)
		httpSrv.Close()
	})
	defer stopSig()
	stopStats := common.EveryStats("webservd")
	defer stopStats()

	if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// stateEstimates answers /v1/estimates from a crawl's state.json: the
// stored change histories run through the EP estimator, plus the
// crawler's own schedule for the page.
type stateEstimates struct {
	st *crawlstate.State
}

func (se stateEstimates) Estimate(url string) (serve.Estimate, bool) {
	r, ok := se.st.EstimateRate(url)
	if !ok {
		return serve.Estimate{}, false
	}
	est := serve.Estimate{
		URL:          url,
		Estimator:    r.Estimator,
		RatePerDay:   r.RatePerDay,
		IntervalDays: crawlstate.ReviseInterval(se.st.Histories[url]),
		Samples:      r.Samples,
		Changes:      r.Changes,
		LastVisitDay: r.LastVisitDay,
	}
	if due, ok := se.st.Due[url]; ok {
		est.NextDueDay = due
	}
	return est, true
}
