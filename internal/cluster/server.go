package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"webevolve/internal/frontier"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("cluster: server closed")

// connCore is the accept/serve machinery shared by ShardServer and
// StoreServer: a listener, one synchronous request/response loop per
// accepted connection over the frame protocol, net.Pipe loopback for
// tests, and graceful close. The embedding server supplies handle.
type connCore struct {
	handle func(op byte, body []byte) (status byte, resp []byte)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen binds addr without serving; Addr is valid afterwards. It lets
// callers bind port 0 and learn the assigned port before blocking in
// Serve.
func (s *connCore) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address, or nil before Listen.
func (s *connCore) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on the listener bound by Listen until
// Close. It always returns a non-nil error; after Close, the error is
// ErrServerClosed.
func (s *connCore) Serve() error {
	s.mu.Lock()
	ln := s.ln
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrServerClosed
	}
	if ln == nil {
		return errors.New("cluster: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("cluster: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener, closes every open connection, and waits for
// their handlers to drain.
func (s *connCore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Pipe returns the client end of an in-process loopback connection
// whose server end is handled by this server: the transport that makes
// distributed simulated crawls runnable (and bit-identical to local
// ones) inside a single test process.
func (s *connCore) Pipe() (net.Conn, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	cli, srv := net.Pipe()
	s.conns[srv] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.serveConn(srv)
		s.mu.Lock()
		delete(s.conns, srv)
		s.mu.Unlock()
	}()
	return cli, nil
}

// serveConn runs one connection's request loop until EOF or error,
// recording per-op latency and frame bytes as it goes. Requests are
// read into buffers the connection reuses (frameReader): handle must
// not retain body, and the decoders copy everything they return.
func (s *connCore) serveConn(conn net.Conn) {
	defer conn.Close()
	serverConnsGauge.Add(1)
	defer serverConnsGauge.Add(-1)
	r := bufio.NewReader(conn)
	var fr frameReader
	for {
		op, body, wire, err := fr.next(r)
		if errors.Is(err, errProtoVersion) {
			// A peer of another build: say so once before hanging up, or
			// all it ever sees is an EOF it retries against.
			_, _ = writeFrame(conn, statusError, []byte(err.Error())) // best effort: closing either way
			return
		}
		if err != nil {
			return // EOF, closed conn or a corrupt stream: drop it
		}
		m := metricsFor(op)
		m.serverReqBytes.Observe(float64(wire))
		start := time.Now()
		status, resp := s.handle(op, body)
		fr.release()
		m.serverSeconds.Observe(time.Since(start).Seconds())
		m.serverOps.Inc()
		if status != statusOK {
			m.serverErrors.Inc()
		}
		n, err := writeFrame(conn, status, resp)
		if err != nil {
			return
		}
		m.serverRespBytes.Observe(float64(n))
	}
}

// ShardServer hosts a set of frontier shards behind a listener: each
// accepted connection runs a synchronous request/response loop over the
// wire protocol, all connections operating on one shared
// frontier.Sharded. It is the shardd daemon's engine, and tests drive
// it directly over net.Pipe loopback connections.
type ShardServer struct {
	connCore
	shards *frontier.Sharded

	// walMu serializes state-mutating requests: the dedup lookup, the
	// WAL append, and the frontier mutation happen atomically under it,
	// so the log order is exactly the application order and a replay
	// reconstructs both the frontier and the responses bit-for-bit.
	// Read-only ops (len, urls) bypass it and rely on the frontier's own
	// locking.
	walMu sync.Mutex
	wal   *wal       // nil: persistence disabled
	dedup *respCache // response memoization for retried mutating ops
}

// NewShardServer wraps a sharded frontier for serving. The server takes
// over the queue; local pops alongside remote clients would break the
// exact candidate prefixes the clients' rounds pop from.
func NewShardServer(shards *frontier.Sharded) *ShardServer {
	s := &ShardServer{
		shards: shards,
		dedup:  newRespCache(respCacheSize),
	}
	s.connCore.handle = s.handle
	s.connCore.conns = make(map[net.Conn]struct{})
	return s
}

// Shards exposes the hosted queue (observability; see NewShardServer's
// caveat about concurrent local use).
func (s *ShardServer) Shards() *frontier.Sharded { return s.shards }

// handle executes one request against the shards.
func (s *ShardServer) handle(op byte, body []byte) (status byte, resp []byte) {
	if mutatingOp(op) {
		return s.handleMutating(op, body)
	}
	d := newDec(body)
	var e enc
	switch op {
	case opShardHello:
		e.u32(uint32(s.shards.NumShards()))
	case opLen:
		e.u32(uint32(s.shards.Len()))
	case opURLs:
		encodeStrings(&e, "", s.shards.URLs())
	default:
		return statusError, []byte(fmt.Sprintf("unknown opcode %d (%s)", op, opName(op)))
	}
	if err := d.finish(); err != nil {
		return statusError, []byte(err.Error())
	}
	return statusOK, e.b
}

// handleMutating runs one state-mutating request: dedup check, apply,
// WAL append — atomically under walMu, so the log is a faithful
// linearization of the applied mutations. A request ID already in the
// cache is a retry of an op this server (or, via WAL replay, its
// previous incarnation) has applied; it gets the memoized response and
// no second application.
//
// The append happens after the apply but before the acknowledgement,
// and only when the op actually mutated state — a crawl re-peeking an
// unchanged frontier must not churn the log with empty rounds.
// Acked-implies-replayable still holds: a crash between apply and
// append loses only an op that was never acknowledged, which the client
// retries against the recovered state (where it re-executes
// deterministically).
func (s *ShardServer) handleMutating(op byte, body []byte) (status byte, resp []byte) {
	d := newDec(body)
	reqID := d.fix64()
	if d.finish() != nil {
		return statusError, []byte("missing request id")
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if st, cached, ok := s.dedup.get(reqID); ok {
		if op == opRound && st == statusOK {
			return s.repeekRound(d)
		}
		return st, cached
	}
	if s.wal != nil && s.wal.broken != nil {
		// Refuse before applying: mutating in-memory state that can no
		// longer be logged would create phantom state a later snapshot
		// could make durable.
		return statusError, []byte(fmt.Sprintf("wal poisoned: %v", s.wal.broken))
	}
	status, resp, mutated := s.applyMutating(op, d)
	if mutated && s.wal != nil {
		if err := s.wal.append(op, body); err != nil {
			// Applied but not durable: refuse the ack rather than let
			// the client trust a write a replay would lose.
			return statusError, []byte(fmt.Sprintf("wal append: %v", err))
		}
	}
	s.remember(reqID, op, status, resp)
	return status, resp
}

// remember memoizes a mutating op's outcome for its retries. An applied
// opRound is remembered as applied only: its response is a candidate
// list, state a retry can derive again (repeekRound), and at a dispatch
// round of entries per reply it would be nearly all of the cache's
// bytes.
func (s *ShardServer) remember(reqID uint64, op, status byte, resp []byte) {
	if op == opRound && status == statusOK {
		resp = nil
	}
	s.dedup.put(reqID, status, resp)
}

// repeekRound answers the retry of an opRound this server has already
// applied: nothing is applied again, and the candidates are peeked
// afresh at the request's own peekMax. The round's client is blocked on
// this reply, so the queue is as the first application left it; and any
// exact prefix of the queue is what the client's merge needs.
func (s *ShardServer) repeekRound(d *dec) (status byte, resp []byte) {
	decodeStrings(d, "") // pops
	decodeStrings(d, "") // removes
	decodeEntries(d)     // pushes
	peekMax := int(d.u32())
	if err := d.finish(); err != nil {
		return statusError, []byte(err.Error())
	}
	var e enc
	if !s.encodeRound(&e, nil, nil, nil, peekMax) {
		return statusError, []byte("round ops need a zero politeness gap")
	}
	return statusOK, e.b
}

// encodeRound applies one dispatch round to the frontier and appends
// the reply — the next pop candidates and whether they are the whole
// queue. It reports false when the frontier refuses round ops.
func (s *ShardServer) encodeRound(e *enc, pops, removes []string, pushes []frontier.Entry, peekMax int) bool {
	cands, _, bounded, ok := s.shards.ApplyRound(pops, removes, pushes, peekMax)
	if !ok {
		return false
	}
	encodeEntries(e, cands)
	e.bool(!bounded) // complete: cands are the whole queue
	return true
}

// applyMutating applies one mutating op whose request ID has already
// been consumed from d, reporting whether it changed frontier state.
// It is the single apply path shared by live requests and WAL replay,
// which is what makes replay reconstruct the exact served state and
// responses.
func (s *ShardServer) applyMutating(op byte, d *dec) (status byte, resp []byte, mutated bool) {
	var e enc
	switch op {
	case opReset:
		s.shards.Reset()
		mutated = true
	case opRound:
		// One crawl-engine dispatch round: pops (candidate entries the
		// client's engine already consumed), drops, reschedules, and
		// the next candidate peek — decoded fully before applying so a
		// malformed frame cannot half-apply.
		pops := decodeStrings(d, "")
		removes := decodeStrings(d, "")
		pushes := decodeEntries(d)
		peekMax := int(d.u32())
		if d.finish() == nil {
			if !s.encodeRound(&e, pops, removes, pushes, peekMax) {
				return statusError, []byte("round ops need a zero politeness gap"), false
			}
			mutated = len(pops)+len(removes)+len(pushes) > 0
		}
	case opShardExport:
		// Extract the queued entries in the requested ring partitions,
		// plus a capped tail of the dedup cache so in-flight retries of
		// migrated work still dedup on the new owner. Extraction order
		// is URL-sorted, so a WAL replay reproduces the entry section
		// bit-for-bit (the dedup tail may differ on replay — harmless,
		// since genuine retries are answered from the memoized original
		// via the dedup-get path, never re-extracted).
		//
		// The (cursor, max) pair bounds the chunk: the response carries
		// only the first max matching entries in URL order strictly after
		// the cursor, a dedup tail on the first chunk only, and a more
		// flag.
		parts := int(d.u32())
		n := int(d.u32())
		set := make(map[int]bool, min(n, 1<<16))
		for i := 0; i < n && d.finish() == nil; i++ {
			set[int(d.u32())] = true
		}
		after, maxN := d.str(), int(d.u32())
		if d.finish() == nil {
			if parts <= 0 || parts > 1<<20 {
				return statusError, []byte(fmt.Sprintf("export with bad partition count %d", parts)), false
			}
			entries, more := s.shards.ExtractPartitionsLimit(parts, set, after, maxN)
			encodeEntries(&e, entries)
			if after == "" {
				tail := s.dedup.tail(exportDedupEntries, exportDedupBytes)
				e.u32(uint32(len(tail)))
				for _, de := range tail {
					e.fix64(de.id).u8(de.status).bytes(de.resp)
				}
			} else {
				e.u32(0)
			}
			e.bool(more)
			migrationExportEntries.Add(int64(len(entries)))
			migrationHandoffBytes.With("export").Observe(float64(len(e.b)))
			mutated = len(entries) > 0
		}
	case opShardImport:
		// Decode fully before applying: a malformed frame must not
		// half-install a migration.
		reqLen := len(d.b)
		entries := decodeEntries(d)
		dn := int(d.u32())
		pairs := make([]dedupEntry, 0, min(dn, 1<<16))
		for i := 0; i < dn && d.finish() == nil; i++ {
			id, st, resp := d.fix64(), d.u8(), d.bytes()
			if d.finish() == nil {
				pairs = append(pairs, dedupEntry{id: id, status: st, resp: append([]byte(nil), resp...)})
			}
		}
		if d.finish() == nil {
			s.shards.PushBatch(entries)
			for _, p := range pairs {
				s.dedup.put(p.id, p.status, p.resp)
			}
			e.u32(uint32(len(entries)))
			migrationImportEntries.Add(int64(len(entries)))
			migrationHandoffBytes.With("import").Observe(float64(reqLen))
			mutated = len(entries) > 0 || len(pairs) > 0
		}
	default:
		return statusError, []byte(fmt.Sprintf("unknown mutating opcode %d", op)), false
	}
	if err := d.finish(); err != nil {
		return statusError, []byte(err.Error()), false
	}
	return statusOK, e.b, mutated
}

// decodeEntries decodes a counted frontier.Entry list, front-coded
// URLs included (encodeEntries's inverse).
func decodeEntries(d *dec) []frontier.Entry {
	n := int(d.u32())
	out := make([]frontier.Entry, 0, min(n, 1<<16))
	prev := ""
	for i := 0; i < n && d.finish() == nil; i++ {
		ent := frontier.Entry{URL: d.strDelta(prev), Due: d.f64(), Priority: d.f64()}
		if d.finish() == nil {
			out = append(out, ent)
			prev = ent.URL
		}
	}
	return out
}

// respCacheSize bounds the retry-dedup window. Every mutating op is
// memoized: a re-run round could re-queue a URL popped in the retry
// gap, and a re-run export or import would move entries twice. An op
// awaiting retry holds its pool slot for the client's whole backoff
// budget (~2.1s), so the entries that can wash through the ring before
// the retry lands are bounded by the throughput of the *other* pooled
// connections: (connsPerServer-1) conns x ~30us minimum per loopback
// round trip x 2.1s ≈ 70k ops per stuck slot. 128k covers that with
// margin. The window is a count of ops, so what it costs in memory is
// what each entry keeps: a reset's or import's small reply whole, an
// applied round only as applied (ShardServer.remember).
const respCacheSize = 1 << 17

// respCache memoizes the responses of mutating requests by request ID,
// evicting the oldest entry once it holds n. Map and ring grow with
// the ops actually performed. It is guarded by the server's walMu
// (replay runs single-threaded before serving).
type respCache struct {
	m    map[uint64]cachedResp
	ring []uint64 // request IDs, oldest at pos once full
	n    int
	pos  int
}

type cachedResp struct {
	status byte
	resp   []byte
}

func newRespCache(n int) *respCache {
	return &respCache{m: make(map[uint64]cachedResp), n: n}
}

func (c *respCache) get(id uint64) (status byte, resp []byte, ok bool) {
	r, ok := c.m[id]
	return r.status, r.resp, ok
}

func (c *respCache) put(id uint64, status byte, resp []byte) {
	if _, ok := c.m[id]; ok {
		return
	}
	if len(c.ring) < c.n {
		c.ring = append(c.ring, id)
	} else {
		delete(c.m, c.ring[c.pos])
		c.ring[c.pos] = id
		c.pos = (c.pos + 1) % c.n
	}
	c.m[id] = cachedResp{status: status, resp: resp}
}

// snapshotEntries returns the cached responses oldest-first, for
// inclusion in a WAL snapshot (so retries spanning a compaction still
// dedup after a restart).
func (c *respCache) snapshotEntries() []dedupEntry {
	out := make([]dedupEntry, 0, len(c.m))
	for i := 0; i < len(c.ring); i++ {
		id := c.ring[(c.pos+i)%len(c.ring)]
		if r, ok := c.m[id]; ok {
			out = append(out, dedupEntry{id: id, status: r.status, resp: r.resp})
		}
	}
	return out
}

// exportDedupEntries / exportDedupBytes cap the dedup tail shipped in
// a shard-export response. Shipping the whole cache is unnecessary:
// only requests still awaiting a retry can arrive at the new owner,
// and those are the most recent ones.
const (
	exportDedupEntries = 1024
	exportDedupBytes   = 1 << 20
)

// tail returns the newest cached responses, bounded by maxEntries and
// a total response-byte budget, oldest-first.
func (c *respCache) tail(maxEntries, maxBytes int) []dedupEntry {
	all := c.snapshotEntries()
	total := 0
	i := len(all)
	for i > 0 && len(all)-i < maxEntries {
		sz := len(all[i-1].resp) + 16
		if total+sz > maxBytes {
			break
		}
		total += sz
		i--
	}
	return all[i:]
}

// dedupEntry is one memoized response as persisted in a snapshot.
type dedupEntry struct {
	id     uint64
	status byte
	resp   []byte
}

// encodeEntries appends a counted frontier.Entry list. Entry lists
// travel sorted (per shard, per batch group), so each URL is front-coded
// against the previous entry's; Due/Priority stay fixed f64s.
func encodeEntries(e *enc, list []frontier.Entry) {
	e.u32(uint32(len(list)))
	prev := ""
	for _, ent := range list {
		e.strDelta(prev, ent.URL)
		e.f64(ent.Due).f64(ent.Priority)
		prev = ent.URL
	}
}
