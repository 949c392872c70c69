// Command shardd is the frontier shard server daemon: it hosts a set
// of per-site frontier shards behind the cluster wire protocol, so
// crawl engines on other machines mount them — crawlsim and webcrawl
// with -shard-servers or -registry, an embedder by injecting a
// cluster.RemoteShards as core.Config.Frontier — and run unchanged.
// Several shardd processes form a frontier cluster; clients of a
// static -shard-servers list must all list them in the same order,
// because the order is the URL routing.
//
// Usage:
//
//	shardd -listen 127.0.0.1:7070 -shards 16 -wal /var/lib/shardd
//	crawlsim -shard-servers 127.0.0.1:7070,127.0.0.1:7071
//
// With -listen :0 the kernel assigns a port; the bound address is
// printed on stdout and, with -addr-file, written to a file that
// orchestration scripts can wait on (the CI cluster smoke job does).
// The address file is removed on shutdown, so waiters never race onto
// a stale address from a previous run.
//
// With -wal, the frontier survives restarts: every mutating op is
// appended to a CRC-framed write-ahead log before it is acknowledged,
// the log is compacted into a snapshot periodically and on graceful
// shutdown, and a restarted shardd replays snapshot + log — including
// after a SIGKILL, where a torn final frame is truncated away (it was
// never acknowledged, so the client retries it).
//
// With -frontier-dir, entries spill to per-shard segment logs on disk
// and only the due-soon head of each shard (bounded by
// -frontier-resident across the server) stays in RAM, so the crawl
// horizon is capped by disk instead of memory. Pop order is
// bit-identical to the in-memory tier. Combine with -wal for
// durability: on restart the WAL is authoritative and rebuilds the
// spill logs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/daemon"
	"webevolve/internal/frontier"
	"webevolve/internal/obs"
	"webevolve/internal/registry"
)

func main() {
	common := daemon.New("127.0.0.1:7070")
	shards := flag.Int("shards", 16, "per-site frontier shards hosted by this server")
	walDir := flag.String("wal", "", "directory for the frontier write-ahead log; queued entries survive restarts (empty disables persistence)")
	walCompactEvery := flag.Duration("wal-compact-every", time.Minute, "interval between WAL compactions (snapshot + log truncation; 0 disables periodic compaction)")
	registryAddr := flag.String("registry", "", "registryd endpoint to register with (host:port); joins the dynamic cluster instead of being listed statically")
	frontierDir := flag.String("frontier-dir", "", "directory for the disk-backed frontier tier: entries spill to per-shard record logs and only the due-soon head stays in RAM (empty keeps the frontier fully in memory)")
	frontierResident := flag.Int("frontier-resident", frontier.DefaultResidentBudget, "resident-entry budget for -frontier-dir: approximate cap on entries materialized in RAM across all shards")
	flag.Parse()

	if err := run(common, *shards, *walDir, *walCompactEvery, *registryAddr, *frontierDir, *frontierResident); err != nil {
		daemon.Fatal("shardd", err)
	}
}

func run(common *daemon.Flags, shards int, walDir string, walCompactEvery time.Duration, registryAddr, frontierDir string, frontierResident int) error {
	q, err := frontier.OpenSharded(frontier.StoreConfig{
		Shards:         shards,
		SpillDir:       frontierDir,
		ResidentBudget: frontierResident,
	})
	if err != nil {
		return err
	}
	defer q.Close()
	if frontierDir != "" {
		fmt.Printf("shardd: disk frontier tier in %s (resident budget %d entries)\n", frontierDir, frontierResident)
	}
	srv := cluster.NewShardServer(q)
	if walDir != "" {
		if err := srv.OpenWAL(walDir); err != nil {
			return err
		}
		fmt.Printf("shardd: WAL %s recovered %d queued entries\n", walDir, q.Len())
	}
	if err := srv.Listen(common.Listen); err != nil {
		return err
	}
	addr := srv.Addr().String()
	fmt.Printf("shardd: serving %d shards on %s\n", shards, addr)
	cleanup, err := common.Publish(addr)
	if err != nil {
		return err
	}
	defer cleanup()

	// The queue depth rides the registry as live gauges, so it shows up
	// in /metrics scrapes and the -stats-every line alike.
	obs.Default.GaugeFunc("webevolve_frontier_entries",
		"entries queued across this server's shards",
		func() float64 { return float64(q.Len()) })
	obs.Default.GaugeFunc("webevolve_frontier_shards",
		"frontier shards hosted by this server",
		func() float64 { return float64(q.NumShards()) })
	// Residency split of the storage tier: with -frontier-dir these show
	// the due-soon head in RAM versus the entries spilled to the record
	// logs; with the in-memory tier everything is resident and the spill
	// gauges stay zero.
	obs.Default.GaugeFunc("webevolve_frontier_resident_entries",
		"frontier entries materialized in RAM (the due-soon head with -frontier-dir)",
		func() float64 { return float64(q.Tier().Resident) })
	obs.Default.GaugeFunc("webevolve_frontier_spilled_entries",
		"frontier entries living only in the spill record logs",
		func() float64 { return float64(q.Tier().Spilled) })
	obs.Default.GaugeFunc("webevolve_frontier_spill_bytes",
		"bytes occupied by the frontier spill record logs",
		func() float64 { return float64(q.Tier().SpillBytes) })
	stopDebug, err := common.ServeDebug("shardd")
	if err != nil {
		return err
	}
	defer stopDebug()

	// Joining the registry makes this server discoverable; the crawl
	// client migrates partitions onto it at its next round boundary.
	var session *registry.Session
	if registryAddr != "" {
		ep, err := daemon.ParseEndpoint(registryAddr)
		if err != nil {
			return fmt.Errorf("-registry: %v", err)
		}
		session, err = registry.StartSession(registry.NewClient(ep), registry.Member{
			Kind: registry.KindShard, Addr: addr, Shards: shards,
		})
		if err != nil {
			return fmt.Errorf("registering at %s: %w", ep, err)
		}
		fmt.Printf("shardd: registered at %s as %s\n", ep, addr)
	}

	stopSig := daemon.OnShutdown(func(s os.Signal) {
		if session != nil {
			// Graceful leave: announce, then keep serving the wire
			// protocol until the migrating client has exported our
			// partitions (or the drain times out — entries then recover
			// from the WAL when we rejoin).
			fmt.Printf("shardd: %v, leaving cluster (draining %d queued entries)\n", s, q.Len())
			if err := session.CloseWait(30 * time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "shardd: leave:", err)
			}
		}
		if walDir != "" {
			fmt.Printf("shardd: %v, shutting down (persisting %d queued entries)\n", s, q.Len())
		} else {
			fmt.Printf("shardd: %v, shutting down (dropping %d queued entries; run with -wal to keep them)\n", s, q.Len())
		}
		srv.Close()
	})
	defer stopSig()
	stopStats := common.EveryStats("shardd")
	defer stopStats()
	var stopCompact func()
	if walDir != "" {
		stopCompact = daemon.Every(walCompactEvery, func() {
			if err := srv.CompactWAL(); err != nil {
				fmt.Fprintln(os.Stderr, "shardd: wal compaction:", err)
			}
		})
		defer stopCompact()
	}

	err = srv.Serve()
	if session != nil {
		session.Close() // no-op after a graceful CloseWait
	}
	if walDir != "" {
		stopCompact()
		// The graceful-shutdown flush: every queued entry lands in the
		// final snapshot instead of being announced and dropped.
		if werr := srv.CloseWAL(); werr != nil {
			if err == cluster.ErrServerClosed {
				return werr
			}
			// Serve's own error wins, but the failed flush must not
			// vanish: the operator would believe the queue persisted.
			fmt.Fprintln(os.Stderr, "shardd: wal shutdown flush:", werr)
		} else {
			fmt.Printf("shardd: WAL %s flushed %d queued entries\n", walDir, q.Len())
		}
	}
	if err != cluster.ErrServerClosed {
		return err
	}
	return nil
}
