package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/serve"
	"webevolve/internal/store"
)

// Timing decorators around each layer's public interface. They exist only
// in the traced run and must be transparent: each forwards every optional
// interface the program type-asserts on its inner value, so the traced run
// takes the code path the untraced run takes (bench_test.go proves the
// crawl digests equal).

// tracedFetcher times fetch.Fetcher.
type tracedFetcher struct {
	inner  fetch.Fetcher
	tr     *tracer
	errors atomic.Int64
}

func (f *tracedFetcher) Fetch(url string, day float64) (fetch.Result, error) {
	s := f.tr.begin(spanFetch, f.tr.root, 0)
	res, err := f.inner.Fetch(url, day)
	f.tr.end(s)
	if err != nil {
		f.errors.Add(1)
	}
	return res, err
}

// roundShards is what both frontier implementations (frontier.Sharded and
// cluster.RemoteShards) offer the engine: the ShardSet plus the batched
// round fast path the engine type-asserts for.
type roundShards interface {
	frontier.ShardSet
	ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) (cands []frontier.Entry, bound frontier.Entry, boundOK, ok bool)
}

// tracedShards times a frontier; see tracedRemoteShards for the remote
// client's extra methods.
type tracedShards struct {
	inner       roundShards
	tr          *tracer
	pushEntries atomic.Int64
}

func (s *tracedShards) timed(name spanName) func() {
	i := s.tr.begin(name, s.tr.root, 0)
	return func() { s.tr.end(i) }
}

// countPushes counts inside the measured window only, like the spans.
func (s *tracedShards) countPushes(n int) {
	if s.tr.active.Load() {
		s.pushEntries.Add(int64(n))
	}
}

func (s *tracedShards) ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) ([]frontier.Entry, frontier.Entry, bool, bool) {
	defer s.timed(spanFrontierApplyRound)()
	s.countPushes(len(pushes))
	return s.inner.ApplyRound(pops, removes, pushes, peekMax)
}

func (s *tracedShards) PopDue(now float64) (frontier.Entry, bool) {
	defer s.timed(spanFrontierPop)()
	return s.inner.PopDue(now)
}

func (s *tracedShards) ClaimDue(now float64) (frontier.Entry, int, bool) {
	defer s.timed(spanFrontierPop)()
	return s.inner.ClaimDue(now)
}

func (s *tracedShards) Push(url string, due, priority float64) {
	defer s.timed(spanFrontierPush)()
	s.countPushes(1)
	s.inner.Push(url, due, priority)
}

func (s *tracedShards) PushBatch(entries []frontier.Entry) {
	defer s.timed(spanFrontierPush)()
	s.countPushes(len(entries))
	s.inner.PushBatch(entries)
}

func (s *tracedShards) NumShards() int         { return s.inner.NumShards() }
func (s *tracedShards) ShardOf(url string) int { return s.inner.ShardOf(url) }

func (s *tracedShards) Release(shard int, nextReady float64) {
	defer s.timed(spanFrontierOther)()
	s.inner.Release(shard, nextReady)
}

func (s *tracedShards) Remove(url string) bool {
	defer s.timed(spanFrontierOther)()
	return s.inner.Remove(url)
}

func (s *tracedShards) Contains(url string) bool {
	defer s.timed(spanFrontierOther)()
	return s.inner.Contains(url)
}

func (s *tracedShards) Len() int {
	defer s.timed(spanFrontierOther)()
	return s.inner.Len()
}

func (s *tracedShards) URLs() []string {
	defer s.timed(spanFrontierOther)()
	return s.inner.URLs()
}

func (s *tracedShards) Peek() (frontier.Entry, bool) {
	defer s.timed(spanFrontierOther)()
	return s.inner.Peek()
}

func (s *tracedShards) NextEvent() (float64, bool) {
	defer s.timed(spanFrontierOther)()
	return s.inner.NextEvent()
}

// remoteShards is the part of cluster.RemoteShards the engine reaches
// through type assertions: the sticky transport error and the membership
// hooks polled at round boundaries.
type remoteShards interface {
	roundShards
	Err() error
	Rebalance() error
	Epoch() uint64
}

// tracedRemoteShards is tracedShards over a remote frontier client.
type tracedRemoteShards struct {
	tracedShards
	remote remoteShards
}

func (s *tracedRemoteShards) Err() error       { return s.remote.Err() }
func (s *tracedRemoteShards) Rebalance() error { return s.remote.Rebalance() }
func (s *tracedRemoteShards) Epoch() uint64    { return s.remote.Epoch() }

// traceShards wraps a frontier, keeping Err/Rebalance/Epoch visible when
// the inner value has them. (io.Closer is not forwarded: the engine closes
// only frontiers it dialed itself, never an injected one.)
func traceShards(inner roundShards, tr *tracer) (frontier.ShardSet, *tracedShards) {
	if r, ok := inner.(remoteShards); ok {
		t := &tracedRemoteShards{tracedShards: tracedShards{inner: inner, tr: tr}, remote: r}
		return t, &t.tracedShards
	}
	t := &tracedShards{inner: inner, tr: tr}
	return t, t
}

// storeCounts are the counts a tracedCollection keeps beside its spans.
// One instance is shared by every collection of a shadowed pair.
type storeCounts struct {
	putRecords  atomic.Int64
	scanVisited atomic.Int64 // records ScanFrom handed to the callback
	scanKept    atomic.Int64 // records the callback accepted
}

// tracedCollection times store.Collection. Both backends' optional
// URLsFrom (the store server's chunked listing asserts it) is forwarded
// when present via urlsFromCollection.
type tracedCollection struct {
	inner  store.Collection
	tr     *tracer
	counts *storeCounts
}

// timed opens a span for a call on key (a URL, a scan cursor, or "").
func (c *tracedCollection) timed(name spanName, key string) func() {
	i := c.tr.beginUnder(name, key)
	return func() { c.tr.end(i) }
}

func (c *tracedCollection) Put(rec store.PageRecord) error {
	defer c.timed(spanStorePutBatch, "")()
	c.count(&c.counts.putRecords, 1)
	return c.inner.Put(rec)
}

func (c *tracedCollection) PutBatch(recs []store.PageRecord) error {
	defer c.timed(spanStorePutBatch, "")()
	c.count(&c.counts.putRecords, len(recs))
	return c.inner.PutBatch(recs)
}

func (c *tracedCollection) Get(url string) (store.PageRecord, bool, error) {
	defer c.timed(spanStoreGet, url)()
	return c.inner.Get(url)
}

func (c *tracedCollection) Delete(url string) error {
	defer c.timed(spanStoreOther, "")()
	return c.inner.Delete(url)
}

func (c *tracedCollection) Len() int {
	defer c.timed(spanStoreOther, "")()
	return c.inner.Len()
}

func (c *tracedCollection) URLs() []string {
	defer c.timed(spanStoreOther, "")()
	return c.inner.URLs()
}

func (c *tracedCollection) Scan(fn func(store.PageRecord) bool) error {
	defer c.timed(spanStoreScan, "")()
	return c.inner.Scan(c.counting(fn))
}

func (c *tracedCollection) ScanFrom(after string, fn func(store.PageRecord) bool) error {
	defer c.timed(spanStoreScan, after)()
	return c.inner.ScanFrom(after, c.counting(fn))
}

func (c *tracedCollection) counting(fn func(store.PageRecord) bool) func(store.PageRecord) bool {
	return func(rec store.PageRecord) bool {
		c.count(&c.counts.scanVisited, 1)
		keep := fn(rec)
		if keep {
			c.count(&c.counts.scanKept, 1)
		}
		return keep
	}
}

// count adds to a counter inside the measured window only, like the spans.
func (c *tracedCollection) count(n *atomic.Int64, by int) {
	if c.tr.active.Load() {
		n.Add(int64(by))
	}
}

func (c *tracedCollection) Close() error {
	defer c.timed(spanStoreOther, "")()
	return c.inner.Close()
}

// urlsFromCollection adds the lazy URL listing both built-in backends have.
type urlsFromCollection struct {
	*tracedCollection
	urlsFrom func(after string, fn func(string) bool)
}

func (c urlsFromCollection) URLsFrom(after string, fn func(string) bool) {
	defer c.timed(spanStoreOther, "")()
	c.urlsFrom(after, fn)
}

func traceCollection(inner store.Collection, tr *tracer, counts *storeCounts) store.Collection {
	t := &tracedCollection{inner: inner, tr: tr, counts: counts}
	if u, ok := inner.(interface {
		URLsFrom(after string, fn func(string) bool)
	}); ok {
		return urlsFromCollection{t, u.URLsFrom}
	}
	return t
}

// tracedSource times serve.Source.View and counts generation switches.
type tracedSource struct {
	inner       serve.Source
	tr          *tracer
	lastGen     atomic.Uint64
	genSwitches atomic.Int64
}

func (s *tracedSource) View() (store.Reader, uint64) {
	i := s.tr.begin(spanServeView, s.tr.root, 0)
	r, gen := s.inner.View()
	s.tr.end(i)
	// Views race with swaps, so a stale generation can arrive after a newer
	// one; only the first sight of each counts.
	for old := s.lastGen.Load(); gen > old; old = s.lastGen.Load() {
		if s.lastGen.CompareAndSwap(old, gen) {
			s.genSwitches.Add(1)
			break
		}
	}
	return r, gen
}

// benchReqHeader carries a request's identifier — the index of the client's
// span — from the load generator to the handler decorator.
const benchReqHeader = "X-Bench-Req"

// tracedHandler times ServeHTTP in-process and links it to the client span
// named in the request header.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, req := h.tr.root, int32(0)
	if v, err := strconv.ParseInt(r.Header.Get(benchReqHeader), 10, 32); err == nil {
		parent, req = int32(v), int32(v)
	}
	i := h.tr.begin(spanServeHandler, parent, req)
	if i == noSpan {
		h.inner.ServeHTTP(w, r)
		return
	}
	leave := h.tr.enter(storeKey(r), i)
	h.inner.ServeHTTP(w, r)
	leave()
	h.tr.end(i)
}

// storeKey is the key a request's handler reads the store by: the page URL
// of GET /v1/pages/{url}, the prefix of a listing (serve probes the
// prefix-equal URL, then scans from it).
func storeKey(r *http.Request) string {
	if key, ok := strings.CutPrefix(r.URL.EscapedPath(), "/v1/pages/"); ok {
		return key
	}
	return r.URL.Query().Get("prefix")
}
