// Command storerd is the repository store-server daemon: it hosts
// named page collections behind the cluster wire protocol, so crawl
// engines on other machines mount their repository with -store-server
// or -registry (an embedder passes cluster.RemoteStore.Shadowed to
// core.NewWithStore) and run unchanged — the storage-side
// counterpart of shardd, completing the split that lets a crawl's
// frontier *and* repository live off the crawling machine.
//
// Usage:
//
//	storerd -listen 127.0.0.1:7080 -dir /var/lib/storerd
//	webcrawl -seeds https://example.com/ -store-server 127.0.0.1:7080
//	crawlsim -store-server 127.0.0.1:7080
//
// With -dir, collections are log-structured disk stores (one
// subdirectory per collection) that survive daemon restarts — every
// acknowledged write batch is flushed, and a crash's torn or corrupt
// segment tail is swept on reopen. Without -dir, collections live in
// memory and die with the process (simulations, smoke tests).
//
// With -serve, storerd additionally exposes the HTTP read API
// (internal/serve) over one of its collections on a second address, so
// the machine holding the repository serves it directly — readers skip
// the crawling machine entirely:
//
//	storerd -listen 127.0.0.1:7080 -dir /var/lib/storerd \
//	        -serve 127.0.0.1:8080 -serve-collection pages
//	curl http://127.0.0.1:8080/v1/pages/https://example.com/
//
// The HTTP server reads the same live collection the wire protocol
// writes, so pages appear to readers as soon as the crawl stores them.
// Change-frequency estimates live with the crawler's state, not the
// repository, so /v1/estimates answers 501 here (use webservd over a
// crawl directory for estimates).
//
// With -listen :0 the kernel assigns a port; the bound address is
// printed on stdout and, with -addr-file (and -serve-addr-file for the
// HTTP side), written to a file that orchestration scripts can wait
// on. Address files are removed on shutdown, so waiters never race
// onto a stale address from a previous run.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/daemon"
	"webevolve/internal/obs"
	"webevolve/internal/registry"
	"webevolve/internal/serve"
	"webevolve/internal/store"
)

func main() {
	common := daemon.New("127.0.0.1:7080")
	dir := flag.String("dir", "", "directory for disk-backed collections, one subdirectory each (empty: in-memory, lost at exit)")
	serveAddr := flag.String("serve", "", "host:port for the HTTP read API over one collection (empty disables; :0 for an assigned port)")
	serveColl := flag.String("serve-collection", "pages", "collection the HTTP read API serves")
	serveAddrFile := flag.String("serve-addr-file", "", "write the HTTP read API's bound address to this file (removed on shutdown)")
	registryAddr := flag.String("registry", "", "registryd endpoint to register with (host:port); store clients then discover this server instead of being pointed at it")
	flag.Parse()

	if err := run(common, *dir, *serveAddr, *serveColl, *serveAddrFile, *registryAddr); err != nil {
		daemon.Fatal("storerd", err)
	}
}

func run(common *daemon.Flags, dir, serveAddr, serveColl, serveAddrFile, registryAddr string) error {
	var srv *cluster.StoreServer
	if dir != "" {
		srv = cluster.NewDiskStoreServer(dir)
		fmt.Printf("storerd: disk-backed collections under %s\n", dir)
	} else {
		srv = cluster.NewMemStoreServer()
		fmt.Println("storerd: in-memory collections (run with -dir to persist)")
	}
	if err := srv.Listen(common.Listen); err != nil {
		return err
	}
	addr := srv.Addr().String()
	fmt.Printf("storerd: serving on %s\n", addr)
	cleanup, err := common.Publish(addr)
	if err != nil {
		return err
	}
	defer cleanup()

	obs.Default.GaugeFunc("webevolve_store_open_collections",
		"collections this server has open",
		func() float64 { return float64(len(srv.Collections())) })
	stopDebug, err := common.ServeDebug("storerd")
	if err != nil {
		return err
	}
	defer stopDebug()

	var httpSrv *http.Server
	if serveAddr != "" {
		// The HTTP read API fronts the same live collection the wire
		// protocol writes (Collection memoizes per name), so stored
		// pages are immediately servable. The collection never swaps
		// under storerd, hence the static source.
		coll, err := srv.Collection(serveColl)
		if err != nil {
			return fmt.Errorf("open serve collection %q: %w", serveColl, err)
		}
		// Caching is off: this collection is written in place (no swap
		// ever bumps the generation), so a cached body could go stale
		// the moment the crawl rewrites the page. Reads go straight to
		// the collection, which is local anyway.
		api := serve.New(serve.Config{Source: serve.Static(store.Reader(coll)), CacheEntries: -1})
		ln, err := net.Listen("tcp", serveAddr)
		if err != nil {
			return fmt.Errorf("serve listen: %w", err)
		}
		fmt.Printf("storerd: HTTP read API for collection %q on %s\n", serveColl, ln.Addr())
		httpCleanup, err := daemon.PublishAddr(serveAddrFile, ln.Addr().String())
		if err != nil {
			ln.Close()
			return err
		}
		defer httpCleanup()
		httpSrv = &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "storerd: http serve:", err)
			}
		}()
	}

	// Store members register immediately (no migration protocol: store
	// data stays put, clients pin collections to members at dial time).
	var session *registry.Session
	if registryAddr != "" {
		ep, err := daemon.ParseEndpoint(registryAddr)
		if err != nil {
			return fmt.Errorf("-registry: %v", err)
		}
		session, err = registry.StartSession(registry.NewClient(ep), registry.Member{
			Kind: registry.KindStore, Addr: addr,
		})
		if err != nil {
			return fmt.Errorf("registering at %s: %w", ep, err)
		}
		fmt.Printf("storerd: registered at %s as %s\n", ep, addr)
	}

	stopSig := daemon.OnShutdown(func(s os.Signal) {
		if session != nil {
			session.Close()
		}
		fmt.Printf("storerd: %v, shutting down\n", s)
		srv.Close()
	})
	defer stopSig()
	stopStats := common.EveryStats("storerd")
	defer stopStats()

	err = srv.Serve()
	if session != nil {
		session.Close()
	}
	// Serve only returns once Close ran, and Close flushes and closes
	// every collection — the disk stores' durable shutdown. The HTTP
	// side stops with it; a read landing in the window reports the
	// closed collection as an error, it never blocks shutdown.
	if httpSrv != nil {
		httpSrv.Close()
	}
	if err != cluster.ErrServerClosed {
		return err
	}
	return nil
}
