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
// other machines. It speaks the round (ApplyRound) plus Len, URLs and
// Reset; the interface's per-entry family is retired (see retired).
// URLs are routed by host hash to a server (all pages of one site live
// on one server), and each server shards by host again internally;
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
// callers check Err when the crawl ends. Request IDs, that sticky
// error, the wire accounting and Close are the core it shares with
// RemoteStore (client). A cluster is owned by one client at a time;
// the servers keep no session state, so a client's hello changes
// nothing on them.
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
	rebalMu  sync.Mutex // serializes Rebalance; guards lastPoll
	lastPoll time.Time

	client
}

// client is the transport bookkeeping RemoteShards and RemoteStore
// share: request IDs, the closed flag every pool checks, the first
// error, and every pool ever dialed.
type client struct {
	// reqBase ^ a per-client counter generates request IDs unique
	// across clients of one cluster with overwhelming probability.
	reqBase uint64
	reqSeq  atomic.Uint64

	closed atomic.Bool

	mu     sync.Mutex // guards failed and pools
	failed error
	// pools holds every server pool ever dialed, across topology swaps,
	// so wire accounting survives migrations and Close closes pools a
	// swap retired.
	pools []*serverConns
}

// allPools snapshots every pool dialed so far.
func (c *client) allPools() []*serverConns {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*serverConns(nil), c.pools...)
}

// nextReq returns a fresh request ID (never zero).
func (c *client) nextReq() uint64 {
	id := c.reqBase + c.reqSeq.Add(1)
	if id == 0 {
		id = c.reqBase + c.reqSeq.Add(1)
	}
	return id
}

// fail records err as the sticky error if none is recorded yet, and
// returns err.
func (c *client) fail(err error) error {
	c.mu.Lock()
	if c.failed == nil {
		c.failed = err
	}
	c.mu.Unlock()
	return err
}

// broken reports whether an error has been recorded.
func (c *client) broken() bool { return c.Err() != nil }

// Err returns the first error this client recorded, if any: a
// transport failure, an undecodable reply, or a call of a retired
// method. Calls whose signatures cannot carry an error (the
// frontier.ShardSet methods, a collection's Len and URLs) return zero
// values after one, so check Err when a crawl winds down.
func (c *client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// call sends one request to sc and returns its reply, recording a
// transport failure as the sticky error.
func (c *client) call(sc *serverConns, op byte, body []byte) ([]byte, error) {
	resp, err := sc.roundTrip(op, body)
	if err != nil {
		return nil, c.fail(err)
	}
	return resp, nil
}

// check records a reply from sc to op that d could not decode as the
// sticky error, naming the server and the op, and returns it; nil when
// the reply decoded.
func (c *client) check(sc *serverConns, op byte, d *dec) error {
	if err := d.finish(); err != nil {
		return c.fail(fmt.Errorf("cluster: %s: %s: bad reply: %w", sc.name, opName(op), err))
	}
	return nil
}

// RoundTrips returns the request frames sent to every server this
// client has dialed (retries included): the unit the round protocol's
// exchange window is measured in.
func (c *client) RoundTrips() int64 {
	var n int64
	for _, sc := range c.allPools() {
		n += sc.trips.Load()
	}
	return n
}

// WireBytes returns the total bytes this client has received from and
// sent to its servers, frame overhead included; the remote engine
// benchmarks report it per crawled page.
func (c *client) WireBytes() (in, out int64) {
	for _, sc := range c.allPools() {
		in += sc.bytesIn.Load()
		out += sc.bytesOut.Load()
	}
	return in, out
}

// Close closes every pooled connection. The servers keep their state:
// closing the client of a persistent frontier or store must not
// destroy it.
func (c *client) Close() error {
	c.closed.Store(true)
	for _, sc := range c.allPools() {
		sc.drainClose()
	}
	return nil
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
	name string
	dial Dialer

	// helloOp and checkHello parameterize the handshake per server
	// kind: opShardHello with shard-count pinning for shard servers,
	// opStoreHello with a magic check for store servers. Both hellos
	// have an empty request body.
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
// the real wire bytes both ways, frame headers included (the unit
// WireBytes and the bytes-per-page benchmark report).
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
func (sc *serverConns) connect() (*clientConn, error) {
	if sc.closed.Load() {
		return nil, errClientClosed
	}
	conn, err := sc.dial()
	if err != nil {
		return nil, err
	}
	cc := &clientConn{conn: conn, r: bufio.NewReader(conn)}
	status, resp, err := sc.exchange(cc, sc.helloOp, nil)
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
			if cc, err = sc.connect(); err != nil {
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
// transport and registers it with the client, whose closed flag it
// checks; the caller fills in the handshake fields.
func (c *client) newServerConns(name string, dial Dialer, opts Options) *serverConns {
	t := opts.t
	backoff := cmp.Or(t.backoff, retryBackoff)
	sc := &serverConns{
		name:       name,
		dial:       dial,
		pool:       make(chan *clientConn, cmp.Or(t.conns, connsPerServer)),
		maxRetries: max(cmp.Or(t.retries, maxRetries), 0),
		backoff:    backoff,
		backoffMax: max(cmp.Or(t.backoffMax, maxRetryBackoff), backoff),
		closed:     &c.closed,
		trips:      new(atomic.Int64),
		sleep:      time.Sleep,
	}
	c.mu.Lock()
	c.pools = append(c.pools, sc)
	c.mu.Unlock()
	return sc
}

// dialEager dials the pool's first connection — failing fast on a
// misconfigured address or a daemon of the wrong kind — stamps the
// name with the resolved remote address, and leaves the remaining
// slots to dial lazily on first use. nameFmt carries one %v for the
// address.
func (sc *serverConns) dialEager(nameFmt string) error {
	cc, err := sc.connect()
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

// retired records a call of a per-entry frontier.ShardSet method as
// the sticky error (see Err) and returns false. The wire carries only
// the round, so the method sends nothing and returns zero values — the
// interface's failure contract — and Err names it.
func (rs *RemoteShards) retired(method string) bool {
	rs.fail(fmt.Errorf("cluster: RemoteShards.%s is retired; crawls use ApplyRound", method))
	return false
}

// The per-entry family of frontier.ShardSet is retired here: crawls
// reach a remote frontier only through ApplyRound (by way of
// frontier.Rounds), and these stay only to satisfy the interface.

func (rs *RemoteShards) Push(string, float64, float64)              { rs.retired("Push") }
func (rs *RemoteShards) PushBatch([]frontier.Entry)                 { rs.retired("PushBatch") }
func (rs *RemoteShards) Release(int, float64)                       { rs.retired("Release") }
func (rs *RemoteShards) Remove(string) bool                         { return rs.retired("Remove") }
func (rs *RemoteShards) Contains(string) bool                       { return rs.retired("Contains") }
func (rs *RemoteShards) NextEvent() (float64, bool)                 { return 0, rs.retired("NextEvent") }
func (rs *RemoteShards) Peek() (e frontier.Entry, ok bool)          { return e, rs.retired("Peek") }
func (rs *RemoteShards) PopDue(float64) (e frontier.Entry, ok bool) { return e, rs.retired("PopDue") }
func (rs *RemoteShards) ClaimDue(float64) (e frontier.Entry, shard int, ok bool) {
	return e, -1, rs.retired("ClaimDue")
}

// exchangeRounds is how many rounds of candidates ApplyRound asks each
// server for: peekMax per dispatch round, times this. frontier.Rounds
// lets a round's commit wait while its cache is exact, so a wider
// window feeds more rounds per exchange — until the pushes of a
// round start landing inside the bound, which ships them early. A
// sweep on crawl_cluster_disk (seed 1999, two servers, 16-page rounds,
// frontier exchanges per run / CPU µs per page): ×1 11,011 / 47.8,
// ×2 5,275 / 45.5, ×4 2,598 / ≈ 41, ×8 1,709 / 42.2 (186 pushes inside
// the bound). The in-process Sharded keeps a one-round window: its
// peek is a walk, not a round trip.
const exchangeRounds = 4

// ApplyRound implements the crawls' batched round protocol
// (frontier.Rounds, their only way to their frontier): the
// shipped pops, drops and reschedules are routed to their owning
// servers and sent — along with the request for the next pop
// candidates — as one opRound frame per server, all servers in
// parallel. Each server returns up to exchangeRounds × peekMax
// candidates, so one exchange feeds several dispatch rounds. The
// per-server candidate lists come back in queue order and are merged
// with the in-process comparator; bound marks the merge's exactness
// limit (the earliest last-entry among servers that truncated their
// lists — entries a server did not return order strictly after its
// last returned one).
//
// ok is always true. Transport failures follow the usual contract:
// retried with exactly-once dedup, then sticky via Err(), with zero
// values returned — the crawl winds down as if the frontier drained.
// So does a server's refusal of the round, should it serve a queue
// built with a politeness gap.
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
		d        dec // the reply, read in the goroutine; checked after the fan-in
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
			e := getEnc()
			e.fix64(rs.nextReq())
			encodeStrings(e, "", r.pops)
			encodeStrings(e, "", r.removes)
			encodeEntries(e, r.pushes)
			e.u32(uint32(peekMax * exchangeRounds))
			sr := &resps[si]
			resp, err := t.servers[si].roundTrip(opRound, e.b)
			putEnc(e)
			if err != nil {
				sr.err = err
				return
			}
			// Each server's reply decodes in its own goroutine, as the
			// replies arrive; the first failure in server order is the
			// one recorded.
			sr.d = dec{b: resp}
			sr.cands = decodeEntries(&sr.d)
			sr.complete = sr.d.bool()
		}(si, r)
	}
	wg.Wait()

	for si := range resps {
		sr := &resps[si]
		if sr.err != nil {
			rs.fail(sr.err)
			return nil, frontier.Entry{}, false, true
		}
		if sr.sent && rs.check(t.servers[si], opRound, &sr.d) != nil {
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

// Len implements frontier.ShardSet.
func (rs *RemoteShards) Len() int {
	t := rs.t()
	n := 0
	for si, resp := range rs.fan(t, opLen, nil) {
		d := newDec(resp)
		n += int(d.u32())
		if rs.check(t.servers[si], opLen, d) != nil {
			return 0
		}
	}
	return n
}

// URLs implements frontier.ShardSet.
func (rs *RemoteShards) URLs() []string {
	t := rs.t()
	var out []string
	for si, resp := range rs.fan(t, opURLs, nil) {
		d := newDec(resp)
		out = append(out, decodeStrings(d, "")...)
		if rs.check(t.servers[si], opURLs, d) != nil {
			return nil
		}
	}
	sort.Strings(out)
	return out
}

// Reset empties every server's shards, so sequential experiments over
// one cluster each start from a clean frontier. Not part of
// frontier.ShardSet: local frontiers are simply rebuilt.
func (rs *RemoteShards) Reset() error {
	// One request ID serves the whole fan-out: IDs only key each
	// server's own dedup cache.
	var e enc
	e.fix64(rs.nextReq())
	rs.fan(rs.t(), opReset, e.b)
	return rs.Err()
}
