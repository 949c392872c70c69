package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webevolve/internal/fetch"
	"webevolve/internal/serve"
	"webevolve/internal/store"
)

// Serve workload constants (ISSUE 11).
const (
	serveSites     = 200
	servePerSite   = 100
	servePages     = serveSites * servePerSite
	serveBodyBytes = 2048
	serveListLimit = 50
	staticRate     = 8000 // open-loop req/s, serve_static
	liveRate       = 5000 // open-loop req/s, serve_live
	writerBatch    = 100  // records per PutBatch, serve_live
	writerTick     = 10 * time.Millisecond
	writerLate     = 5 * time.Millisecond
	maxGenerations = 1024
	serveTailLimit = 0.99
)

// corpus generates the served collection: page idx of generation gen is a
// 2 KiB body (a 16-byte header naming both, then filler cut from a seeded
// block) whose checksum — the ETag — is recorded per generation, so every
// response can be checked against the generation it names.
type corpus struct {
	urls     []string // sorted; site-major
	prefixes []string // one per site
	block    []byte
	sums     [maxGenerations]atomic.Pointer[[]uint64]
}

func newCorpus(seed int64) *corpus {
	c := &corpus{block: make([]byte, 1<<20)}
	rand.New(rand.NewSource(seed)).Read(c.block)
	for s := 0; s < serveSites; s++ {
		prefix := fmt.Sprintf("http://site%03d.bench/", s)
		c.prefixes = append(c.prefixes, prefix)
		for p := 0; p < servePerSite; p++ {
			c.urls = append(c.urls, fmt.Sprintf("%sp%04d", prefix, p))
		}
	}
	return c
}

func (c *corpus) filler(gen, idx int) []byte {
	off := (idx*131 + gen*7919) % (len(c.block) - serveBodyBytes)
	return c.block[off : off+serveBodyBytes-16]
}

func (c *corpus) body(gen, idx int) []byte {
	b := make([]byte, 16, serveBodyBytes)
	binary.LittleEndian.PutUint64(b[0:], uint64(gen))
	binary.LittleEndian.PutUint64(b[8:], uint64(idx))
	return append(b, c.filler(gen, idx)...)
}

func (c *corpus) record(gen, idx int) store.PageRecord {
	body := c.body(gen, idx)
	return store.PageRecord{
		URL:       c.urls[idx],
		Checksum:  fetch.Checksum64(body),
		FetchedAt: float64(gen) + float64(idx)/servePages,
		Version:   gen,
		Links:     []string{c.prefixes[idx/servePerSite], c.urls[(idx+1)%servePages]},
		Content:   body,
	}
}

// generation returns the checksum table of a published generation, or nil
// for one a response has no business naming.
func (c *corpus) generation(gen uint64) []uint64 {
	if gen >= maxGenerations {
		return nil
	}
	if p := c.sums[gen].Load(); p != nil {
		return *p
	}
	return nil
}

// records builds recs[lo:hi) of a generation and notes their checksums.
func (c *corpus) records(gen, lo, hi int, sums []uint64) []store.PageRecord {
	recs := make([]store.PageRecord, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rec := c.record(gen, i)
		sums[i] = rec.Checksum
		recs = append(recs, rec)
	}
	return recs
}

// serveEnv is one prepared serve workload: the filled store, the HTTP
// server on loopback, and the load generator's keep-alive connections.
type serveEnv struct {
	p    params
	tr   *tracer
	live bool
	dir  string
	c    *corpus

	disk    *store.Disk     // serve_static
	sh      *store.Shadowed // serve_live
	nextGen int             // next shadow generation directory to open
	srv     *http.Server
	serving sync.WaitGroup
	conns   []*clientConn

	// Traced run only.
	src    *tracedSource
	counts *storeCounts
}

func setupServe(p params, tr *tracer) (instance, error) {
	e := &serveEnv{p: p, tr: tr, live: p.workload == serveLive, c: newCorpus(p.seed)}
	dir, err := os.MkdirTemp(p.tmpRoot, p.workload+"-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	if tr != nil {
		e.counts = &storeCounts{}
	}
	fail := func(err error) (instance, error) {
		e.close()
		return nil, err
	}

	gen0, err := e.openGeneration()
	if err != nil {
		return fail(err)
	}
	sums := make([]uint64, servePages)
	for lo := 0; lo < servePages; lo += 1000 {
		if err := gen0.PutBatch(e.c.records(0, lo, lo+1000, sums)); err != nil {
			return fail(err)
		}
	}
	e.c.sums[0].Store(&sums)

	var src serve.Source
	if e.live {
		if e.sh, err = store.NewShadowed(gen0, e.openGeneration); err != nil {
			return fail(err)
		}
		src = e.sh
	} else {
		src = serve.Static(gen0)
	}
	if p.wrapSource != nil {
		src = p.wrapSource(src)
	}
	if tr != nil {
		e.src = &tracedSource{inner: src, tr: tr}
		src = e.src
	}
	var handler http.Handler = serve.New(serve.Config{Source: src})
	if tr != nil {
		handler = &tracedHandler{inner: handler, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	e.srv = &http.Server{Handler: handler}
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = e.srv.Serve(ln) // ErrServerClosed at shutdown
	}()
	for i := 0; i < runtime.NumCPU(); i++ {
		cc, err := dialClient(ln.Addr().String(), p.seed, i)
		if err != nil {
			return fail(err)
		}
		e.conns = append(e.conns, cc)
	}
	return e, nil
}

// openGeneration opens the next generation's disk collection (behind the
// store decorator in a traced run). It is store.Shadowed's shadow factory.
func (e *serveEnv) openGeneration() (store.Collection, error) {
	d, err := store.OpenDisk(e.genDir(e.nextGen))
	if err != nil {
		return nil, err
	}
	if e.nextGen == 0 {
		e.disk = d
	}
	e.nextGen++
	if e.tr != nil {
		return traceCollection(d, e.tr, e.counts), nil
	}
	return d, nil
}

func (e *serveEnv) genDir(gen int) string { return filepath.Join(e.dir, fmt.Sprintf("gen-%d", gen)) }

// stopServing closes the client connections, the HTTP server and the
// store, in that order.
func (e *serveEnv) stopServing() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, cc := range e.conns {
		cc.conn.Close()
	}
	e.conns = nil
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		keep(e.srv.Shutdown(ctx))
		cancel()
		e.serving.Wait()
		e.srv = nil
	}
	if e.sh != nil {
		keep(e.sh.Close())
	} else if e.disk != nil {
		keep(e.disk.Close())
	}
	e.sh, e.disk = nil, nil
	return first
}

func (e *serveEnv) close() error {
	err := e.stopServing()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

func (e *serveEnv) rate() float64 {
	if e.live {
		return liveRate
	}
	return staticRate
}

func (e *serveEnv) measure() (*pass, error) {
	ps := newPass()
	var obs0 promSamples
	if e.tr != nil {
		obs0 = scrapeObs()
	}
	phase := time.Duration(e.p.seconds / 2 * float64(time.Second))
	w := &liveWriter{env: e}
	if e.live {
		w.start()
	}
	runtime.GC()
	if e.tr != nil {
		e.tr.start()
	}

	// Phase A, closed loop: every connection sends its next request when
	// the previous one completes.
	startA := sampleProc()
	deadline := startA.at.Add(phase)
	e.eachConn(func(cc *clientConn) {
		for n := int64(0); time.Now().Before(deadline); n++ {
			cc.do(e, cc.request(e.live, n), time.Time{})
		}
	})
	endA := sampleProc()
	var sentA int64
	for _, cc := range e.conns {
		sentA += cc.sent
	}

	// Phase B, open loop: requests fall due at a fixed rate whatever the
	// server is doing, and are timed from when they were due.
	openLoop(len(e.conns), e.rate(), phase, func(worker int, n int64, due time.Time) {
		cc := e.conns[worker]
		cc.do(e, cc.request(e.live, n), due)
	})
	endB := sampleProc()
	var obs1 promSamples
	if e.tr != nil {
		e.tr.finish()
		obs1 = scrapeObs()
	}
	if err := w.stop(); err != nil {
		return nil, fmt.Errorf("writer: %w", err)
	}

	var gets, lists []float64
	var late, maxLate float64
	for _, cc := range e.conns {
		ps.attempted += cc.sent
		ps.failed += cc.failed
		ps.detail.StoreClosed += cc.storeClosed
		ps.problems = append(ps.problems, cc.problems...)
		gets = append(gets, cc.getUS...)
		lists = append(lists, cc.listMS...)
		late += float64(cc.late)
		maxLate = max(maxLate, cc.maxLateMS)
	}
	ps.setWindow(startA, endA, sentA)
	ps.detail.WallS = endB.at.Sub(startA.at).Seconds()
	ps.e2e["peak_rss_mb"] = endB.peakRSSMB
	ps.detail.Op = summarize(gets, serveTailLimit)
	list := summarize(lists, serveTailLimit)
	ps.detail.List = &list
	ps.e2e["op_p50_us"] = ps.detail.Op.P50
	if len(gets) == 0 || len(lists) == 0 {
		ps.problem("no latency samples: %d GETs, %d listings", len(gets), len(lists))
	}

	l := ps.layer
	l["serve.get_p50_us"] = ps.detail.Op.P50
	l["serve.get_p99_us"] = ps.detail.Op.Tail
	l["serve.list_p50_ms"] = list.P50
	l["loadgen.sent"] = float64(ps.attempted)
	sentB := float64(ps.attempted - sentA)
	l["loadgen.late_share"] = late / max(sentB, 1)
	l["loadgen.max_late_ms"] = maxLate
	if w.batches > 0 {
		l["loadgen.writer_late_share"] = float64(w.late) / float64(w.batches)
	}
	if e.tr != nil {
		if err := e.layerMetrics(ps, promDelta(obs0, obs1), w, endB.cpuS-startA.cpuS); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// eachConn runs fn once per connection, concurrently, and waits.
func (e *serveEnv) eachConn(fn func(*clientConn)) {
	var wg sync.WaitGroup
	for _, cc := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(cc)
		}()
	}
	wg.Wait()
}

func (e *serveEnv) layerMetrics(ps *pass, d promSamples, w *liveWriter, cpu float64) error {
	l := ps.layer
	lt := e.tr.analyze()
	storeLayerMetrics(l, lt, e.counts)
	handler := lt[spanServeHandler].durUS
	sort.Float64s(handler)
	l["serve.handler.busy_s"] = lt[spanServeHandler].selfS
	l["serve.handler.p50_us"] = quantile(handler, 0.5)
	l["serve.handler.p99_us"] = quantile(handler, 0.99)
	// A client span's self time is what it spent outside the handler:
	// the HTTP server, the sockets and the client's own parsing.
	overhead := lt[spanClientRequest].durUS
	sort.Float64s(overhead)
	l["serve.http_overhead_us"] = quantile(overhead, 0.5)
	l["serve.view.busy_s"] = lt[spanServeView].selfS
	hits, misses := d["webevolve_serve_cache_hits_total"], d["webevolve_serve_cache_misses_total"]
	if hits+misses > 0 {
		l["serve.cache.hit_ratio"] = hits / (hits + misses)
	}
	l["serve.cache.flushes"] = d["webevolve_serve_cache_invalidations_total"]
	l["serve.gen_switches"] = float64(e.src.genSwitches.Load())
	l["serve.not_modified"] = d["webevolve_serve_not_modified_total"]
	l["serve.status_5xx"] = d.sumWhere("webevolve_serve_responses_total", "status", "5")
	l["store.segment_rolls"] = d["webevolve_store_segment_rolls_total"]
	l["store.compactions"] = d["webevolve_store_compactions_total"]
	l["proc.cpu_s"] = cpu
	l["proc.heap_end_mb"], l["proc.gc_cpu_frac"] = heapMB()

	// Store probes: shut the server down and reopen the generation that was
	// being served, as a restarted daemon would.
	served := e.genDir(w.swaps)
	if err := e.stopServing(); err != nil {
		return err
	}
	t0 := time.Now()
	disk, err := store.OpenDisk(served)
	if err != nil {
		return fmt.Errorf("reopening store: %w", err)
	}
	e.disk = disk
	if n := disk.Len(); n != servePages {
		ps.problem("reopened store holds %d records, want %d", n, servePages)
	}
	l["store.reopen_s"] = time.Since(t0).Seconds()
	user := 0
	for i := 0; i < servePages; i += servePerSite {
		user += servePerSite * recordUserBytes(e.c.record(0, i)) // every page of a site is the same size
	}
	l["store.disk_bytes"] = float64(dirBytes(served))
	l["store.space_amp"] = l["store.disk_bytes"] / float64(user)
	l["store.garbage_ratio"] = disk.GarbageRatio()
	return nil
}

// liveWriter is serve_live's crawl-shaped writer: PutBatch(100) into the
// shadow on a 10 ms schedule, Swap after each full generation.
type liveWriter struct {
	env     *serveEnv
	done    chan struct{}
	wg      sync.WaitGroup
	err     error
	batches int
	late    int
	swaps   int
}

func (w *liveWriter) start() {
	w.done = make(chan struct{})
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.err = w.run()
	}()
}

func (w *liveWriter) stop() error {
	if w.done == nil {
		return nil
	}
	close(w.done)
	w.wg.Wait()
	return w.err
}

func (w *liveWriter) run() error {
	e := w.env
	gen, idx := 1, 0
	sums := make([]uint64, servePages)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * writerTick)
		timer.Reset(time.Until(due))
		select {
		case <-w.done:
			return nil
		case <-timer.C:
		}
		w.batches++
		if time.Since(due) > writerLate {
			w.late++
		}
		if err := e.sh.Shadow().PutBatch(e.c.records(gen, idx, idx+writerBatch, sums)); err != nil {
			return err
		}
		if idx += writerBatch; idx < servePages {
			continue
		}
		// Generation complete: publish what it holds, then swap it in under
		// whatever requests are in flight, as a crawler would.
		if gen >= maxGenerations {
			return errors.New("generation table full")
		}
		published := sums
		e.c.sums[gen].Store(&published)
		var span int32
		if e.tr != nil {
			span = e.tr.begin(spanStoreSwap, e.tr.root, 0)
		}
		_, err := e.sh.Swap()
		if e.tr != nil {
			e.tr.end(span)
		}
		if err != nil {
			return err
		}
		w.swaps++
		// The generation just retired may still be read by requests that
		// were in flight across the swap; the one before it cannot be.
		if gen >= 2 {
			if err := os.RemoveAll(e.genDir(gen - 2)); err != nil {
				return err
			}
		}
		gen, idx, sums = gen+1, 0, make([]uint64, servePages)
	}
}
