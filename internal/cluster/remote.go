package cluster

import (
	"bufio"
	"cmp"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webevolve/internal/frontier"
	"webevolve/internal/registry"
	"webevolve/internal/webgraph"
)

// Dialer opens one connection to a shard server.
type Dialer func() (net.Conn, error)

// The transport both client kinds share: per-server connection pools,
// redial with capped exponential backoff, and request-ID dedup for
// exactly-once retries.
const (
	// connsPerServer sizes each server's pool: two ops of one client
	// can be in flight at once (a store client's content-stage write
	// beside a reader's get).
	connsPerServer = 2
	// With 6 retries backing off 25ms..1s, a client rides out roughly
	// two seconds of server downtime — enough for a supervised shardd
	// restart — before the error becomes sticky. Every mutating op
	// carries a request ID the server dedups, so a retry is applied
	// exactly once even if the original was.
	maxRetries      = 6
	retryBackoff    = 25 * time.Millisecond
	maxRetryBackoff = time.Second
	// dialTimeout bounds each TCP connect attempt.
	dialTimeout = 5 * time.Second
	// rebalancePoll rate-limits membership polls: Rebalance is called at
	// every engine round boundary, which can be tens of thousands of
	// times a second for an in-memory simulation.
	rebalancePoll = 100 * time.Millisecond
)

// Options configures a cluster client: the frontier shard client
// (DialMembership, Dial, DialTCP, Loopback → RemoteShards) or the
// repository store client (DialStore, DialStoreTCP, LoopbackStore →
// RemoteStore). Both run on the transport the constants above define.
type Options struct {
	// t overrides the transport constants; only tests set it.
	t transport
}

// transport is a test's override of the transport constants: a zero
// field keeps its constant, negative retries disable retrying, and a
// negative poll reads the membership on every Rebalance call.
type transport struct {
	conns, retries            int
	backoff, backoffMax, poll time.Duration
}

// tcpDialer dials addr over TCP.
func tcpDialer(addr string) Dialer {
	return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, dialTimeout) }
}

func tcpDialers(addrs []string) []Dialer {
	dialers := make([]Dialer, len(addrs))
	for i, a := range addrs {
		dialers[i] = tcpDialer(a)
	}
	return dialers
}

// RemoteShards implements frontier.ShardSet over a cluster of shard
// servers, so the crawl engines run unchanged with their frontier on
// other machines. URLs are routed by host hash to a server (all pages
// of one site live on one server, preserving shard politeness and
// claim exclusivity), and each server shards by host again internally;
// global shard indices are the concatenation of the servers' local
// index spaces.
//
// Transport failures are retried: the broken connection is closed, the
// server is redialed with capped exponential backoff, and the op is
// resent with its original request ID (the server dedups, so a resend
// of an op the server already applied returns the original response —
// see mutatingOp). Only after the retry budget is spent does the error
// become sticky: every later operation is a no-op returning zero
// values (the engine winds down as if the frontier drained), and
// callers check Err when the crawl ends. A cluster is owned by one
// client at a time; connecting clears stale claims a vanished previous
// client may have held.
type RemoteShards struct {
	// topo is the routing topology of the current membership epoch: the
	// consistent-hash ring plus the per-member connection pools, swapped
	// atomically when a migration completes. Every operation snapshots
	// it once at entry, so one op runs against one coherent epoch even
	// while Rebalance installs the next.
	topo atomic.Pointer[shardTopology]

	// Membership plane: a registry, or the fixed membership of a static
	// list (one epoch that never moves; see staticMembership).
	src      MembershipSource
	dialFor  func(m registry.Member) Dialer
	opts     Options
	rehello  []byte     // every pool's reconnect hello (see serverConns.hello)
	rebalMu  sync.Mutex // serializes Rebalance; guards lastPoll
	lastPoll time.Time

	// all tracks every server pool ever dialed, across topology swaps,
	// so wire accounting survives migrations and Close closes pools a
	// swap retired.
	allMu sync.Mutex
	all   []*serverConns

	// reqBase ^ a per-client counter generates request IDs unique
	// across clients of one cluster with overwhelming probability.
	reqBase uint64
	reqSeq  atomic.Uint64

	closed atomic.Bool

	failMu sync.Mutex
	failed error
}

// shardTopology is one membership epoch's immutable routing state.
// servers is index-aligned with ring.Members().
type shardTopology struct {
	epoch   uint64
	ring    *Ring
	servers []*serverConns
	// offsets[i] is the global index of server i's local shard 0;
	// counts[i] its local shard count.
	offsets []int
	counts  []int
	total   int
}

// serverOf routes a URL's host to the index of its owning server.
func (t *shardTopology) serverOf(url string) int {
	return t.ring.Owner(t.ring.PartOf(url))
}

// t snapshots the current topology.
func (rs *RemoteShards) t() *shardTopology { return rs.topo.Load() }

// track registers a pool in the lifetime accounting list.
func (rs *RemoteShards) track(sc *serverConns) {
	rs.allMu.Lock()
	rs.all = append(rs.all, sc)
	rs.allMu.Unlock()
}

func (rs *RemoteShards) allServers() []*serverConns {
	rs.allMu.Lock()
	defer rs.allMu.Unlock()
	return append([]*serverConns(nil), rs.all...)
}

// installTopology swaps in a new epoch's routing. servers must be
// aligned with ring.Members().
func (rs *RemoteShards) installTopology(epoch uint64, ring *Ring, servers []*serverConns) {
	t := &shardTopology{epoch: epoch, ring: ring, servers: servers}
	for _, sc := range servers {
		t.offsets = append(t.offsets, t.total)
		t.counts = append(t.counts, sc.wantShards)
		t.total += sc.wantShards
	}
	rs.topo.Store(t)
}

var _ frontier.ShardSet = (*RemoteShards)(nil)

var errClientClosed = errors.New("cluster: client closed")

// clientConn is one pooled connection with its buffered reader.
type clientConn struct {
	conn net.Conn
	r    *bufio.Reader
}

// serverConns is the connection pool for one server. A pool slot holds
// either a live connection or nil — a slot whose connection broke. The
// slot itself is always returned to the pool (even as nil), so waiters
// are never stranded across a redial; the next op taking a nil slot
// dials a fresh connection.
type serverConns struct {
	name  string
	dial  Dialer
	hello []byte // reconnect hello body (zero gap, no claim clearing)

	// helloOp and checkHello parameterize the handshake per server
	// kind: opHello with shard-count pinning for shard servers,
	// opStoreHello with a magic check for store servers.
	helloOp    byte
	checkHello func(resp []byte) error

	// pinMu guards the handshake-pinned state below: concurrent
	// reconnects on different pool slots run checkHello concurrently.
	pinMu sync.Mutex
	// wantShards pins the server's shard count from the first hello;
	// a reconnect seeing a different count means the server restarted
	// with a different layout, which silently reroutes URLs — refuse.
	wantShards int
	// storeBoot pins a store server's instance ID from the first hello,
	// so a reconnect can tell a restarted server from the original one
	// (checkStoreHello).
	storeBoot    uint64
	storeBootSet bool

	pool chan *clientConn

	maxRetries int
	backoff    time.Duration
	backoffMax time.Duration
	closed     *atomic.Bool
	trips      *atomic.Int64
	sleep      func(time.Duration) // test seam; time.Sleep

	// bytesOut/bytesIn total the wire bytes this pool sent and
	// received (frame overhead included) — the raw material for the
	// bytes-per-page benchmark column (see RemoteShards.WireBytes).
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

// exchange sends one request frame and reads its response, accounting
// the real wire bytes both ways (post-compression — the unit WireBytes
// and the bytes-per-page benchmark report).
func (sc *serverConns) exchange(cc *clientConn, op byte, body []byte) (byte, []byte, error) {
	sc.trips.Add(1)
	m := metricsFor(op)
	out, err := writeFrame(cc.conn, op, body)
	if err != nil {
		return 0, nil, err
	}
	sc.bytesOut.Add(int64(out))
	m.clientReqBytes.Observe(float64(out))
	status, resp, in, err := readFrame(cc.r)
	if err == nil {
		sc.bytesIn.Add(int64(in))
		m.clientRespBytes.Observe(float64(in))
	}
	return status, resp, err
}

// connect dials a fresh connection and runs the hello handshake over
// it: the per-kind validation (shard-count pinning, or the store
// server's magic). A server of another protocol version fails the
// exchange itself (errProtoVersion).
func (sc *serverConns) connect(helloBody []byte) (*clientConn, error) {
	if sc.closed.Load() {
		return nil, errClientClosed
	}
	conn, err := sc.dial()
	if err != nil {
		return nil, err
	}
	cc := &clientConn{conn: conn, r: bufio.NewReader(conn)}
	status, resp, err := sc.exchange(cc, sc.helloOp, helloBody)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if status != statusOK {
		conn.Close()
		return nil, fmt.Errorf("server error: %s", resp)
	}
	if err := sc.checkHello(resp); err != nil {
		conn.Close()
		return nil, err
	}
	return cc, nil
}

// checkShardHello validates a shard server's hello response and pins
// the shard count: a reconnect seeing a different count means the
// server restarted with a different layout, which silently reroutes
// URLs — refuse.
func (sc *serverConns) checkShardHello(resp []byte) error {
	d := newDec(resp)
	n := int(d.u32())
	if d.finish() != nil || n < 1 {
		return errors.New("bad hello response")
	}
	sc.pinMu.Lock()
	defer sc.pinMu.Unlock()
	if sc.wantShards == 0 {
		sc.wantShards = n
	} else if n != sc.wantShards {
		return fmt.Errorf("shard count changed across reconnect: %d, want %d", n, sc.wantShards)
	}
	return nil
}

// checkStoreHello validates a store server's hello magic — so a client
// pointed at the wrong kind of daemon fails at connect — and pins the
// server's boot ID. A reconnect landing on a *restarted* server is
// accepted only when the server is durable (disk-backed: acknowledged
// writes survived, and retried ops are idempotent); a restarted
// memory-backed server silently lost every collection, so resuming
// against it would corrupt the crawl — refuse and let the error go
// sticky instead.
func (sc *serverConns) checkStoreHello(resp []byte) error {
	d := newDec(resp)
	magic := d.u32()
	durable := d.bool()
	boot := d.fix64()
	if d.finish() != nil || magic != storeHelloMagic {
		return errors.New("not a store server (bad hello magic)")
	}
	sc.pinMu.Lock()
	defer sc.pinMu.Unlock()
	if !sc.storeBootSet {
		sc.storeBoot, sc.storeBootSet = boot, true
		return nil
	}
	if boot != sc.storeBoot {
		if !durable {
			return errors.New("store server restarted without -dir: its collections were lost")
		}
		sc.storeBoot = boot
	}
	return nil
}

// roundTrip sends one request and reads its response over a pooled
// connection, retrying across redials on transport failure. The pool
// slot is always returned — holding the live connection on success,
// nil after a failure — so concurrent ops never block on a drained
// pool.
func (sc *serverConns) roundTrip(op byte, body []byte) ([]byte, error) {
	m := metricsFor(op)
	start := time.Now()
	cc := <-sc.pool
	var lastErr error
	attempt := 0
	for ; attempt <= sc.maxRetries && retryable(lastErr); attempt++ {
		if attempt > 0 {
			m.clientRetries.Inc()
			sc.sleep(sc.backoffFor(attempt))
		}
		if cc == nil {
			var err error
			if attempt > 0 {
				clientRedials.Inc()
			}
			if cc, err = sc.connect(sc.hello); err != nil {
				lastErr = err
				continue
			}
		}
		status, resp, err := sc.exchange(cc, op, body)
		if err != nil {
			cc.conn.Close()
			cc = nil
			lastErr = err
			continue
		}
		sc.pool <- cc
		m.clientOps.Inc()
		m.clientSeconds.Observe(time.Since(start).Seconds())
		if status != statusOK {
			return nil, fmt.Errorf("cluster: %s: %s: server error: %s", sc.name, opName(op), resp)
		}
		return resp, nil
	}
	sc.pool <- cc // nil: the next op on this slot redials
	return nil, fmt.Errorf("cluster: %s: %s (after %d attempts): %w", sc.name, opName(op), attempt, lastErr)
}

// retryable reports whether a redial can change the outcome: not once
// the client is closed, and not against a peer of another build, which
// answers every attempt the same way.
func retryable(err error) bool {
	return !errors.Is(err, errClientClosed) && !errors.Is(err, errProtoVersion)
}

// backoffFor is the capped exponential redial delay before retry n.
func (sc *serverConns) backoffFor(n int) time.Duration {
	d := sc.backoff << (n - 1)
	if d > sc.backoffMax || d <= 0 {
		return sc.backoffMax
	}
	return d
}

// newServerConns builds one server's connection pool over the shared
// transport; the caller fills in the handshake fields.
func newServerConns(name string, dial Dialer, opts Options, closed *atomic.Bool) *serverConns {
	t := opts.t
	backoff := cmp.Or(t.backoff, retryBackoff)
	return &serverConns{
		name:       name,
		dial:       dial,
		pool:       make(chan *clientConn, cmp.Or(t.conns, connsPerServer)),
		maxRetries: max(cmp.Or(t.retries, maxRetries), 0),
		backoff:    backoff,
		backoffMax: max(cmp.Or(t.backoffMax, maxRetryBackoff), backoff),
		closed:     closed,
		trips:      new(atomic.Int64),
		sleep:      time.Sleep,
	}
}

// dialEager dials the pool's first connection — failing fast on a
// misconfigured address or a daemon of the wrong kind — stamps the
// name with the resolved remote address, and leaves the remaining
// slots to dial lazily on first use. nameFmt carries one %v for the
// address.
func (sc *serverConns) dialEager(helloBody []byte, nameFmt string) error {
	cc, err := sc.connect(helloBody)
	if err != nil {
		return err
	}
	sc.name = fmt.Sprintf(nameFmt, cc.conn.RemoteAddr())
	sc.pool <- cc
	for c := 1; c < cap(sc.pool); c++ {
		sc.pool <- nil
	}
	return nil
}

// drainClose empties one pool, closing live connections. Slots held by
// in-flight ops stay theirs (those ops fail via the closed flag and
// return them). Refilling exactly as many slots as were taken keeps the
// pool's slot count invariant, so neither waiters nor returning ops
// ever block.
func (sc *serverConns) drainClose() {
	taken := 0
	for i := 0; i < cap(sc.pool); i++ {
		select {
		case cc := <-sc.pool:
			taken++
			if cc != nil {
				cc.conn.Close()
			}
		default:
		}
	}
	for i := 0; i < taken; i++ {
		sc.pool <- nil
	}
}

// helloBody encodes the shard handshake: the politeness gap the server
// applies, and whether to clear stale shard claims (a fresh client
// session does; a reconnect must not). Every client sends a zero gap:
// crawls space requests to one host in their fetcher, and the round
// protocol runs only at zero. Tests encode other gaps.
func helloBody(gapDays float64, clearClaims bool) []byte {
	var e enc
	e.bool(true).f64(gapDays).bool(clearClaims)
	return e.b
}

// Dial connects to a static cluster of shard servers, one Dialer per
// server: DialMembership over the list's fixed membership, whose ring
// identities are the list positions — so every client of one cluster
// must list the servers in the same order.
func Dial(dialers []Dialer, opts Options) (*RemoteShards, error) {
	src := staticMembership(dialers, nil)
	return DialMembership(src, src.dialer, opts)
}

// randomReqBase draws the client's request-ID base. Request IDs only
// key the server's retry-dedup cache, so randomness here does not
// perturb deterministic crawls.
func randomReqBase() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// nextReq returns a fresh request ID (never zero).
func (rs *RemoteShards) nextReq() uint64 {
	id := rs.reqBase + rs.reqSeq.Add(1)
	if id == 0 {
		id = rs.reqBase + rs.reqSeq.Add(1)
	}
	return id
}

// DialTCP connects to shard servers at the given host:port addresses.
func DialTCP(addrs []string, opts Options) (*RemoteShards, error) {
	return Dial(tcpDialers(addrs), opts)
}

// Loopback connects to in-process servers over net.Pipe — no sockets,
// fully deterministic, used by tests and benchmarks to run distributed
// crawls inside one process.
func Loopback(servers []*ShardServer, opts Options) (*RemoteShards, error) {
	dialers := make([]Dialer, len(servers))
	for i, s := range servers {
		dialers[i] = s.Pipe
	}
	return Dial(dialers, opts)
}

// fail records the first transport error; later operations no-op.
func (rs *RemoteShards) fail(err error) {
	rs.failMu.Lock()
	if rs.failed == nil {
		rs.failed = err
	}
	rs.failMu.Unlock()
}

// broken reports whether a transport error has been recorded.
func (rs *RemoteShards) broken() bool { return rs.Err() != nil }

// Err returns the sticky transport error, if any. Check it when a
// crawl winds down: after a failure the ShardSet methods return zero
// values, which the engines read as a drained frontier.
func (rs *RemoteShards) Err() error {
	rs.failMu.Lock()
	defer rs.failMu.Unlock()
	return rs.failed
}

// RoundTrips returns the total request frames sent across all servers
// (retries included) — the unit the batched-push optimization is
// measured in.
func (rs *RemoteShards) RoundTrips() int64 {
	var n int64
	for _, sc := range rs.allServers() {
		n += sc.trips.Load()
	}
	return n
}

// WireBytes returns the total bytes this client has sent to and
// received from its servers (frame overhead included) — the unit the
// ROADMAP's "shrink the wire" item is measured in; the remote engine
// benchmarks report it per crawled page.
func (rs *RemoteShards) WireBytes() (in, out int64) {
	for _, sc := range rs.allServers() {
		in += sc.bytesIn.Load()
		out += sc.bytesOut.Load()
	}
	return in, out
}

func (rs *RemoteShards) closeAll() {
	rs.closed.Store(true)
	for _, sc := range rs.allServers() {
		sc.drainClose()
	}
}

// Close closes every pooled connection.
func (rs *RemoteShards) Close() error {
	rs.closeAll()
	return nil
}

// NumShards returns the total shard count across the current epoch's
// servers.
func (rs *RemoteShards) NumShards() int { return rs.t().total }

// Epoch returns the membership epoch of the installed topology (0 for
// a static cluster).
func (rs *RemoteShards) Epoch() uint64 { return rs.t().epoch }

// ShardOf returns the global shard index url hashes to: the owning
// server's offset plus the server's own local shard for the host.
func (rs *RemoteShards) ShardOf(url string) int {
	t := rs.t()
	host := webgraph.SiteOf(url)
	si := t.ring.Owner(frontier.HostShard(host, t.ring.Parts()))
	return t.offsets[si] + frontier.HostShard(host, t.counts[si])
}

// serverOfShard inverts the global shard index to (server, local).
func (t *shardTopology) serverOfShard(shard int) (int, int) {
	for i := len(t.offsets) - 1; i >= 0; i-- {
		if shard >= t.offsets[i] {
			return i, shard - t.offsets[i]
		}
	}
	return 0, shard
}

// Push implements frontier.ShardSet.
func (rs *RemoteShards) Push(url string, due, priority float64) {
	if rs.broken() {
		return
	}
	t := rs.t()
	var e enc
	e.fix64(rs.nextReq()).str(url).f64(due).f64(priority)
	if _, err := t.servers[t.serverOf(url)].roundTrip(opPush, e.b); err != nil {
		rs.fail(err)
	}
}

// pushBatchChunk caps the entries carried by one opPushBatch frame.
// 8192 entries at typical URL lengths is well under a megabyte — far
// from the protocol's maxFrame — so even a full frontier rebuild in one
// PushBatch stays a short sequence of valid frames instead of one
// oversized, unsendable one.
const pushBatchChunk = 8192

// PushBatch implements frontier.ShardSet: entries are grouped by owning
// server and each group ships as a handful of opPushBatch frames — one
// round trip per server per pushBatchChunk entries instead of one per
// URL.
func (rs *RemoteShards) PushBatch(entries []frontier.Entry) {
	if rs.broken() || len(entries) == 0 {
		return
	}
	t := rs.t()
	groups := make([][]frontier.Entry, len(t.servers))
	if len(t.servers) == 1 {
		groups[0] = entries
	} else {
		for _, ent := range entries {
			si := t.serverOf(ent.URL)
			groups[si] = append(groups[si], ent)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(t.servers))
	for si, group := range groups {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, group []frontier.Entry) {
			defer wg.Done()
			sc := t.servers[si]
			for off := 0; off < len(group); off += pushBatchChunk {
				chunk := group[off:min(off+pushBatchChunk, len(group))]
				var e enc
				e.fix64(rs.nextReq())
				encodeEntries(&e, chunk)
				if _, err := sc.roundTrip(opPushBatch, e.b); err != nil {
					errs[si] = err
					return
				}
			}
		}(si, group)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rs.fail(err)
			return
		}
	}
}

// ApplyRound implements the crawls' batched round protocol
// (frontier.Rounds, their only way to their frontier): the
// round's pops, drops and reschedules are routed to their owning
// servers and shipped — along with the request for the next pop
// candidates — as one opRound frame per server, all servers in
// parallel. The per-server candidate lists come back in queue order and
// are merged with the in-process comparator; bound marks the merge's
// exactness limit (the earliest last-entry among servers that truncated
// their lists — entries a server did not return order strictly after
// its last returned one).
//
// ok is always true. Transport failures follow the usual contract:
// retried with exactly-once dedup, then sticky via Err(), with zero
// values returned — the crawl winds down as if the frontier drained.
// So does a server's refusal of the round, should it hold a non-zero
// gap (no client's hello sets one).
func (rs *RemoteShards) ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) (cands []frontier.Entry, bound frontier.Entry, boundOK, ok bool) {
	if rs.broken() {
		return nil, frontier.Entry{}, false, true
	}
	t := rs.t()
	n := len(t.servers)
	type svrRound struct {
		pops, removes []string
		pushes        []frontier.Entry
	}
	reqs := make([]svrRound, n)
	if n == 1 {
		reqs[0] = svrRound{pops: pops, removes: removes, pushes: pushes}
	} else {
		for _, u := range pops {
			si := t.serverOf(u)
			reqs[si].pops = append(reqs[si].pops, u)
		}
		for _, u := range removes {
			si := t.serverOf(u)
			reqs[si].removes = append(reqs[si].removes, u)
		}
		for _, ent := range pushes {
			si := t.serverOf(ent.URL)
			reqs[si].pushes = append(reqs[si].pushes, ent)
		}
	}

	type svrResp struct {
		cands    []frontier.Entry
		complete bool
		err      error
		sent     bool
	}
	resps := make([]svrResp, n)
	var wg sync.WaitGroup
	for si := 0; si < n; si++ {
		r := &reqs[si]
		if peekMax <= 0 && len(r.pops)+len(r.removes)+len(r.pushes) == 0 {
			continue // nothing for this server and no peek wanted
		}
		resps[si].sent = true
		wg.Add(1)
		go func(si int, r *svrRound) {
			defer wg.Done()
			sc := t.servers[si]
			e := getEnc()
			e.fix64(rs.nextReq())
			encodeStrings(e, "", r.pops)
			encodeStrings(e, "", r.removes)
			encodeEntries(e, r.pushes)
			e.u32(uint32(peekMax))
			resp, err := sc.roundTrip(opRound, e.b)
			putEnc(e)
			if err != nil {
				resps[si].err = err
				return
			}
			d := newDec(resp)
			list := decodeEntries(d)
			complete := d.bool()
			if d.finish() != nil {
				resps[si].err = fmt.Errorf("cluster: %s: bad round response", sc.name)
				return
			}
			resps[si].cands, resps[si].complete = list, complete
		}(si, r)
	}
	wg.Wait()

	for si := range resps {
		if resps[si].err != nil {
			rs.fail(resps[si].err)
			return nil, frontier.Entry{}, false, true
		}
	}
	if peekMax <= 0 {
		return nil, frontier.Entry{}, false, true
	}
	lists := make([][]frontier.Entry, 0, n)
	for si := range resps {
		sr := &resps[si]
		if !sr.sent {
			continue
		}
		lists = append(lists, sr.cands)
		if !sr.complete && len(sr.cands) > 0 {
			last := sr.cands[len(sr.cands)-1]
			if !boundOK || frontier.EntryBefore(last, bound) {
				bound, boundOK = last, true
			}
		}
	}
	return mergeCands(lists), bound, boundOK, true
}

// mergeCands merges the servers' candidate lists, each already in
// queue order, into one. A URL lives on one server, so no two entries
// compare equal and the merge is the sorted concatenation.
func mergeCands(lists [][]frontier.Entry) []frontier.Entry {
	if len(lists) == 1 {
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]frontier.Entry, 0, total)
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || frontier.EntryBefore(l[0], lists[best][0])) {
				best = i
			}
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
	return out
}

// fan sends one request to every server of t concurrently and returns
// the responses indexed by server — or nil from a broken client, which
// a failure here makes it (sticky, see Err).
func (rs *RemoteShards) fan(t *shardTopology, op byte, body []byte) [][]byte {
	if rs.broken() {
		return nil
	}
	results := make([][]byte, len(t.servers))
	errs := make([]error, len(t.servers))
	var wg sync.WaitGroup
	for i := range t.servers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = t.servers[i].roundTrip(op, body)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rs.fail(err)
			return nil
		}
	}
	return results
}

// popDue is the distributed form of Sharded.popDue: peek every server's
// poppable head, pick the global minimum with the in-process
// comparator, and commit the pop on the winner, rescanning if the head
// moved (a concurrent Release can wake an earlier shard between peek
// and commit — the same race the in-process scan revalidates).
func (rs *RemoteShards) popDue(now float64, claim bool) (frontier.Entry, int, bool) {
	if rs.broken() {
		return frontier.Entry{}, -1, false
	}
	t := rs.t()
	if len(t.servers) == 1 {
		// One server: its global pop is the cluster's, in one round trip.
		op := opPopDue
		if claim {
			op = opClaimDue
		}
		var e enc
		e.fix64(rs.nextReq()).f64(now)
		resp, err := t.servers[0].roundTrip(op, e.b)
		if err != nil {
			rs.fail(err)
			return frontier.Entry{}, -1, false
		}
		d := newDec(resp)
		ent, ok := decodeEntry(d)
		if !ok {
			return frontier.Entry{}, -1, false
		}
		shard := -1
		if claim {
			shard = int(d.u32())
		}
		if d.finish() != nil {
			rs.fail(fmt.Errorf("cluster: bad pop response"))
			return frontier.Entry{}, -1, false
		}
		return ent, shard, true
	}

	var peek enc
	peek.f64(now).bool(claim)
	for {
		best := -1
		var bestE frontier.Entry
		for i, resp := range rs.fan(t, opHeadDue, peek.b) {
			d := newDec(resp)
			if ent, ok := decodeEntry(d); ok && d.finish() == nil &&
				(best < 0 || frontier.EntryBefore(ent, bestE)) {
				best, bestE = i, ent
			}
		}
		if best < 0 {
			return frontier.Entry{}, -1, false
		}
		var commit enc
		commit.fix64(rs.nextReq()).f64(now).str(bestE.URL).bool(claim)
		resp, err := t.servers[best].roundTrip(opPopDueMatch, commit.b)
		if err != nil {
			rs.fail(err)
			return frontier.Entry{}, -1, false
		}
		d := newDec(resp)
		if ent, ok := decodeEntry(d); ok {
			local := int(d.u32())
			if d.finish() != nil {
				rs.fail(fmt.Errorf("cluster: bad pop response"))
				return frontier.Entry{}, -1, false
			}
			return ent, t.offsets[best] + local, true
		}
		// The winner's head moved between peek and commit; rescan.
	}
}

// PopDue implements frontier.ShardSet.
func (rs *RemoteShards) PopDue(now float64) (frontier.Entry, bool) {
	e, _, ok := rs.popDue(now, false)
	return e, ok
}

// ClaimDue implements frontier.ShardSet.
func (rs *RemoteShards) ClaimDue(now float64) (frontier.Entry, int, bool) {
	return rs.popDue(now, true)
}

// Release implements frontier.ShardSet.
func (rs *RemoteShards) Release(shard int, nextReady float64) {
	if rs.broken() {
		return
	}
	t := rs.t()
	si, local := t.serverOfShard(shard)
	var e enc
	e.fix64(rs.nextReq()).u32(uint32(local)).f64(nextReady)
	if _, err := t.servers[si].roundTrip(opRelease, e.b); err != nil {
		rs.fail(err)
	}
}

// Remove implements frontier.ShardSet.
func (rs *RemoteShards) Remove(url string) bool {
	if rs.broken() {
		return false
	}
	t := rs.t()
	var e enc
	e.fix64(rs.nextReq()).str(url)
	resp, err := t.servers[t.serverOf(url)].roundTrip(opRemove, e.b)
	if err != nil {
		rs.fail(err)
		return false
	}
	var ok bool
	return rs.decodeReply(opRemove, resp, func(d *dec) { ok = d.bool() }) && ok
}

// Contains implements frontier.ShardSet.
func (rs *RemoteShards) Contains(url string) bool {
	if rs.broken() {
		return false
	}
	t := rs.t()
	var e enc
	e.str(url)
	resp, err := t.servers[t.serverOf(url)].roundTrip(opContains, e.b)
	if err != nil {
		rs.fail(err)
		return false
	}
	var ok bool
	return rs.decodeReply(opContains, resp, func(d *dec) { ok = d.bool() }) && ok
}

// Len implements frontier.ShardSet.
func (rs *RemoteShards) Len() int {
	n := 0
	for _, resp := range rs.fan(rs.t(), opLen, nil) {
		if !rs.decodeReply(opLen, resp, func(d *dec) { n += int(d.u32()) }) {
			return 0
		}
	}
	return n
}

// URLs implements frontier.ShardSet.
func (rs *RemoteShards) URLs() []string {
	var out []string
	for _, resp := range rs.fan(rs.t(), opURLs, nil) {
		if !rs.decodeReply(opURLs, resp, func(d *dec) { out = append(out, decodeStrings(d, "")...) }) {
			return nil
		}
	}
	sort.Strings(out)
	return out
}

// Peek implements frontier.ShardSet.
func (rs *RemoteShards) Peek() (frontier.Entry, bool) {
	found := false
	var bestE frontier.Entry
	for _, resp := range rs.fan(rs.t(), opPeek, nil) {
		d := newDec(resp)
		if ent, ok := decodeEntry(d); ok && d.finish() == nil &&
			(!found || frontier.EntryBefore(ent, bestE)) {
			found, bestE = true, ent
		}
	}
	return bestE, found
}

// NextEvent implements frontier.ShardSet.
func (rs *RemoteShards) NextEvent() (float64, bool) {
	found := false
	var next float64
	for _, resp := range rs.fan(rs.t(), opNextEvent, nil) {
		d := newDec(resp)
		ok, t := d.bool(), d.f64()
		if d.finish() == nil && ok && (!found || t < next) {
			found, next = true, t
		}
	}
	return next, found
}

// Reset empties every server's shards (claims and politeness deadlines
// included), so sequential experiments over one cluster each start
// from a clean frontier. Not part of frontier.ShardSet: local frontiers
// are simply rebuilt.
func (rs *RemoteShards) Reset() error {
	// One request ID serves the whole fan-out: IDs only key each
	// server's own dedup cache.
	var e enc
	e.fix64(rs.nextReq())
	rs.fan(rs.t(), opReset, e.b)
	return rs.Err()
}

// ShardLens returns every server's per-shard entry counts, concatenated
// in global shard order (observability, mirroring Sharded.ShardLens).
func (rs *RemoteShards) ShardLens() []int {
	var out []int
	for _, resp := range rs.fan(rs.t(), opStats, nil) {
		if !rs.decodeReply(opStats, resp, func(d *dec) {
			n := int(d.u32())
			for j := 0; j < n && d.finish() == nil; j++ {
				out = append(out, int(d.u32()))
			}
		}) {
			return nil
		}
	}
	return out
}

// decodeReply runs read over one server's reply and records a reply
// that does not decode as the sticky error (see Err), reporting whether
// it decoded. Len, Remove, Contains, URLs and ShardLens, which cannot
// return an error, decode through it, so a truncated or garbled reply
// is never read as an empty queue, an absent URL or a short list.
func (rs *RemoteShards) decodeReply(op byte, resp []byte, read func(d *dec)) bool {
	d := newDec(resp)
	read(d)
	if err := d.finish(); err != nil {
		rs.fail(fmt.Errorf("cluster: bad %s response: %w", opName(op), err))
		return false
	}
	return true
}
