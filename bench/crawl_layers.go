package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/frontier"
	"webevolve/internal/store"
)

// layerMetrics fills a traced crawl's per-layer metrics from its spans and
// from the change in the program's own obs counters over the run.
func (e *crawlEnv) layerMetrics(ps *pass, d promSamples, sampler *tierSampler, start, end procSample) {
	l := ps.layer
	pages := float64(ps.attempted)
	wall := end.at.Sub(start.at).Seconds()
	cpu := end.cpuS - start.cpuS
	lt := e.tr.analyze()

	l["fetch.calls"] = float64(lt[spanFetch].calls)
	l["fetch.busy_s"] = lt[spanFetch].selfS
	l["fetch.errors"] = float64(e.fetcher.errors.Load())

	phase := func(name string) float64 {
		return d[`webevolve_engine_phase_seconds_sum{phase="`+name+`"}`]
	}
	l["core.rounds"] = d["webevolve_engine_rounds_total"]
	if n := d["webevolve_engine_round_jobs_count"]; n > 0 {
		l["core.jobs_per_round"] = d["webevolve_engine_round_jobs_sum"] / n
	}
	l["core.pop_s"] = phase("pop")
	l["core.fetch_wait_s"] = phase("fetch")
	l["core.apply_schedule_s"] = phase("apply_schedule")
	l["core.apply_content_s"] = phase("apply_content")
	l["core.push_s"] = phase("push")
	l["core.dispatch_groups"] = d["webevolve_dispatch_groups_total"]
	l["core.line_promotions"] = d["webevolve_dispatch_line_promotions_total"]
	l["core.worker_occupancy"] = lt[spanFetch].selfS / (float64(e.workers) * wall)
	l["core.allocs_per_page"] = float64(end.mallocs-start.mallocs) / pages
	l["core.alloc_bytes_per_page"] = float64(end.allocBytes-start.allocBytes) / pages
	l["core.gc_pause_ms"] = float64(end.gcPauseNs-start.gcPauseNs) / 1e6

	frontierBusy := 0.0
	for _, n := range []spanName{spanFrontierApplyRound, spanFrontierPop, spanFrontierPush, spanFrontierOther} {
		frontierBusy += lt[n].selfS
	}
	l["frontier.apply_round.calls"] = float64(lt[spanFrontierApplyRound].calls)
	l["frontier.apply_round.busy_s"] = lt[spanFrontierApplyRound].selfS
	l["frontier.pop.calls"] = float64(lt[spanFrontierPop].calls)
	l["frontier.pop.busy_s"] = lt[spanFrontierPop].selfS
	l["frontier.push.entries"] = float64(e.shards.pushEntries.Load())
	l["frontier.push.busy_s"] = lt[spanFrontierPush].selfS
	l["frontier.other.busy_s"] = lt[spanFrontierOther].selfS

	storeBusy := storeLayerMetrics(l, lt, e.counts)
	// What the engine itself burned: process CPU less the time spent
	// inside the layers it calls (their busy time stands in for their CPU;
	// fetch busy excludes nothing, so on crawl_latency this goes negative
	// and is floored — sleeping is not CPU).
	l["core.self_cpu_us_per_page"] = max(0, cpu-lt[spanFetch].selfS-frontierBusy-storeBusy) * 1e6 / pages

	l["proc.cpu_s"] = cpu
	l["proc.heap_end_mb"], l["proc.gc_cpu_frac"] = heapMB()

	if e.rshards == nil {
		return
	}
	tier := sampler.last
	l["frontier.resident_peak"] = float64(sampler.residentPeak)
	l["frontier.spilled_end"] = float64(tier.Spilled)
	l["frontier.spill_bytes"] = float64(tier.SpillBytes)
	if pushes := l["frontier.push.entries"]; pushes > 0 {
		l["frontier.spill_bytes_per_push"] = float64(tier.SpillBytes) / pushes
	}
	l["cluster.client_op_s"] = d.sum("webevolve_cluster_client_op_seconds_sum")
	l["cluster.server_op_s"] = d.sum("webevolve_cluster_server_op_seconds_sum")
	l["cluster.wire_overhead_s"] = l["cluster.client_op_s"] - l["cluster.server_op_s"]
	l["cluster.frames_compressed"] = d["webevolve_cluster_frames_compressed_total"]
	if c := d["webevolve_cluster_frame_compressed_bytes_sum"]; c > 0 {
		l["cluster.compress_ratio"] = d["webevolve_cluster_frame_raw_bytes_sum"] / c
	}
	l["cluster.retries"] = d.sum("webevolve_cluster_client_retries_total")
	l["cluster.redials"] = d["webevolve_cluster_client_redials_total"]
	l["cluster.wal_appends"] = d["webevolve_wal_appends_total"]
	l["cluster.wal_bytes_per_page"] = d["webevolve_wal_append_bytes_total"] / pages
	l["store.segment_rolls"] = d["webevolve_store_segment_rolls_total"]
	l["store.compactions"] = d["webevolve_store_compactions_total"]
	if rounds := l["core.rounds"]; rounds > 0 {
		l["cluster.round_trips_per_round"] = l["cluster.round_trips"] / rounds
	}
}

// storeLayerMetrics fills the store.* span metrics and returns the layer's
// total busy time.
func storeLayerMetrics(l map[string]float64, lt [numSpanNames]layerTimes, counts *storeCounts) float64 {
	l["store.put_batch.calls"] = float64(lt[spanStorePutBatch].calls)
	l["store.put_batch.records"] = float64(counts.putRecords.Load())
	l["store.put_batch.busy_s"] = lt[spanStorePutBatch].selfS
	l["store.get.calls"] = float64(lt[spanStoreGet].calls)
	l["store.get.busy_s"] = lt[spanStoreGet].selfS
	gets := lt[spanStoreGet].durUS
	sort.Float64s(gets)
	l["store.get.p99_us"] = quantile(gets, 0.99)
	l["store.scan.calls"] = float64(lt[spanStoreScan].calls)
	l["store.scan.busy_s"] = lt[spanStoreScan].selfS
	if kept := counts.scanKept.Load(); kept > 0 {
		l["store.scan.rows_per_result"] = float64(counts.scanVisited.Load()) / float64(kept)
	}
	l["store.swap.calls"] = float64(lt[spanStoreSwap].calls)
	l["store.swap.busy_s"] = lt[spanStoreSwap].selfS
	return lt[spanStorePutBatch].selfS + lt[spanStoreGet].selfS + lt[spanStoreScan].selfS +
		lt[spanStoreSwap].selfS + lt[spanStoreOther].selfS
}

// tierSampler polls the shard servers' frontiers for their residency split
// during a traced run (the peak cannot be read at the end).
type tierSampler struct {
	fronts       []*frontier.Sharded
	done         chan struct{}
	wg           sync.WaitGroup
	residentPeak int
	last         frontier.TierStats
}

func startTierSampler(fronts []*frontier.Sharded) *tierSampler {
	s := &tierSampler{fronts: fronts, done: make(chan struct{})}
	if len(fronts) == 0 {
		return s
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *tierSampler) sample() {
	var sum frontier.TierStats
	for _, q := range s.fronts {
		t := q.Tier()
		sum.Resident += t.Resident
		sum.Spilled += t.Spilled
		sum.SpillBytes += t.SpillBytes
	}
	s.last = sum
	s.residentPeak = max(s.residentPeak, sum.Resident)
}

// stop takes a final sample and waits for the poller; nil-safe so the
// untraced run can call it unconditionally.
func (s *tierSampler) stop() {
	if s == nil {
		return
	}
	close(s.done)
	s.wg.Wait()
}

// clusterUsage records what a crawl_cluster_disk run put on the wire and on
// disk. It runs the moment the measured window closes: the output checks
// that follow scan the collection over the same connections, and shutdown
// compacts the WAL into its snapshot.
func (e *crawlEnv) clusterUsage(ps *pass) {
	l := ps.layer
	pages := float64(ps.attempted)
	in, out := e.rshards.WireBytes()
	sin, sout := e.rstore.WireBytes()
	l["cluster.wire_bytes_in"], l["cluster.wire_bytes_out"] = float64(in), float64(out)
	l["cluster.store_wire_bytes"] = float64(sin + sout)
	l["cluster.wire_bytes_per_page"] = float64(in+out+sin+sout) / pages
	l["cluster.round_trips"] = float64(e.rshards.RoundTrips())
	l["cluster.store_round_trips"] = float64(e.rstore.RoundTrips())
	l["store.disk_bytes"] = float64(dirBytes(e.storeDir()))
	l["store.disk_bytes_per_page"] = float64(dirBytes(e.diskDirs()...)) / pages
}

// clusterChecks finishes a crawl_cluster_disk pass: it shuts the whole
// cluster down and reopens the store, frontier and WAL directories the way
// restarted daemons would, requiring the lengths and the collection digest
// the live run had. The reopen times are the layers' probe metrics.
func (e *crawlEnv) clusterChecks(ps *pass, digest string, records, frontierLen int) error {
	l := ps.layer
	nServers := len(e.shardSrvs)
	if err := e.sh.Close(); err != nil {
		return fmt.Errorf("closing collections: %w", err)
	}
	e.sh = nil
	if err := e.stopCluster(); err != nil {
		return fmt.Errorf("stopping cluster: %w", err)
	}

	t0 := time.Now()
	disk, err := store.OpenDisk(e.storeDir() + "/pages")
	if err != nil {
		return fmt.Errorf("reopening store: %w", err)
	}
	e.reopened = disk
	reLen := disk.Len()
	l["store.reopen_s"] = time.Since(t0).Seconds()
	reDigest, _, problems := digestCollection(disk)
	ps.problems = append(ps.problems, problems...)
	if reLen != records || reDigest != digest {
		ps.problem("reopened store holds %d records digest %s, live run had %d digest %s", reLen, reDigest, records, digest)
	}
	l["store.garbage_ratio"] = disk.GarbageRatio()
	user := 0.0
	if err := disk.Scan(func(rec store.PageRecord) bool {
		user += float64(recordUserBytes(rec))
		return true
	}); err != nil {
		return err
	}
	if user > 0 {
		l["store.space_amp"] = float64(dirBytes(e.storeDir())) / user
	}

	reFrontier := 0
	for i := 0; i < nServers; i++ {
		t0 := time.Now()
		q, err := frontier.OpenSharded(frontier.StoreConfig{
			Shards:         crawlShards / clusterServers,
			SpillDir:       e.frontierDir(i),
			ResidentBudget: clusterResident,
		})
		if err != nil {
			return fmt.Errorf("reopening frontier: %w", err)
		}
		l["frontier.reopen_s"] += time.Since(t0).Seconds()
		spillLen := q.Len()
		t0 = time.Now()
		srv := cluster.NewShardServer(q)
		if err := srv.OpenWAL(e.walDir(i)); err != nil {
			q.Close()
			return fmt.Errorf("replaying WAL: %w", err)
		}
		l["cluster.wal_replay_s"] += time.Since(t0).Seconds()
		if q.Len() != spillLen {
			ps.problem("shard server %d: spill logs rebuilt %d entries, WAL replay %d", i, spillLen, q.Len())
		}
		reFrontier += q.Len()
		if err := srv.CloseWAL(); err != nil {
			q.Close()
			return err
		}
		if err := q.Close(); err != nil {
			return err
		}
	}
	if reFrontier != frontierLen {
		ps.problem("reopened frontier holds %d entries, live run had %d", reFrontier, frontierLen)
	}
	if e.tr != nil {
		return e.diskFrontierProbe(l)
	}
	return nil
}

// recordUserBytes is the payload a caller handed the store for one record.
func recordUserBytes(rec store.PageRecord) int {
	n := len(rec.URL) + len(rec.Content) + 8 + 8 + 8 + 8 // checksum, fetched-at, version, importance
	for _, link := range rec.Links {
		n += len(link)
	}
	return n
}

// diskFrontierProbe times direct calls on a fresh disk-tier frontier:
// pushes far past the resident budget, then claim / reschedule / release
// cycles at its head.
func (e *crawlEnv) diskFrontierProbe(l map[string]float64) error {
	q, err := frontier.OpenSharded(frontier.StoreConfig{
		Shards:         crawlShards,
		SpillDir:       e.dir + "/probe-frontier",
		ResidentBudget: diskProbeResidents,
	})
	if err != nil {
		return err
	}
	defer q.Close()
	urls := make([]string, diskProbePushes)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://site%04d.probe/p%06d", i%1000, i)
	}
	t0 := time.Now()
	for i, u := range urls {
		q.Push(u, float64(i%977)/10, 0)
	}
	l["frontier.disk.push_us"] = float64(time.Since(t0).Microseconds()) / diskProbePushes
	t0 = time.Now()
	for i := 0; i < diskProbeClaims; i++ {
		ent, shard, ok := q.ClaimDue(1e9)
		if !ok {
			return fmt.Errorf("disk frontier probe: nothing to claim at step %d", i)
		}
		q.Push(ent.URL, ent.Due+100, 0)
		q.Release(shard, 0)
	}
	l["frontier.disk.claim_us"] = float64(time.Since(t0).Microseconds()) / diskProbeClaims
	return nil
}
