package cluster

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webevolve/internal/frontier"
)

// fastRetry keeps retry tests quick without changing the retry logic.
var fastRetry = Options{t: transport{backoff: time.Millisecond, backoffMax: 4 * time.Millisecond}}

// dropPooledConns closes every pooled connection in place (leaving the
// stale conns in the pool), simulating transient drops the client
// discovers mid-operation.
func dropPooledConns(rs *RemoteShards) int {
	dropped := 0
	for _, sc := range rs.t().servers {
		for i := 0; i < cap(sc.pool); i++ {
			select {
			case cc := <-sc.pool:
				if cc != nil {
					cc.conn.Close()
					dropped++
				}
				sc.pool <- cc
			default:
			}
		}
	}
	return dropped
}

// TestRemoteSurvivesConnDrop: a transient connection drop must be
// absorbed by redial + retry, not fail the whole crawl.
func TestRemoteSurvivesConnDrop(t *testing.T) {
	servers := make([]*ShardServer, 2)
	for i := range servers {
		servers[i] = NewShardServer(frontier.NewSharded(4))
	}
	rs, err := Loopback(servers, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rs.Close()
		for _, s := range servers {
			s.Close()
		}
	})

	local := frontier.NewSharded(4)
	urls := testURLs(10, 3)
	for i, u := range urls {
		rs.Push(u, float64(i%5), 0)
		local.Push(u, float64(i%5), 0)
	}
	// Drop every pooled conn repeatedly while draining; every op after a
	// drop exercises the redial path, pops included.
	for drained := false; !drained; {
		if n := dropPooledConns(rs); n == 0 {
			t.Fatal("no pooled conns to drop")
		}
		for i := 0; i < 4; i++ {
			le, lok := local.PopDue(10)
			re, rok := rs.PopDue(10)
			if lok != rok || (lok && !sameEntry(le, re)) {
				t.Fatalf("pop diverged after drop: (%+v,%v) vs (%+v,%v)", re, rok, le, lok)
			}
			if !lok {
				drained = true
				break
			}
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("transient drops became sticky: %v", err)
	}
}

// failingDialer wraps a dialer so that a chosen dial attempt fails.
type failingDialer struct {
	inner Dialer
	calls atomic.Int64
	fail  int64 // which call (1-based) returns an error
}

func (f *failingDialer) dial() (net.Conn, error) {
	if f.calls.Add(1) == f.fail {
		return nil, errors.New("injected dial failure")
	}
	return f.inner()
}

// TestRemoteSurvivesFailingDial injects one failing dial into the
// redial path: the client must back off, dial again, and complete the
// op — the acceptance contract that a single transient connection drop
// no longer fails the whole crawl.
func TestRemoteSurvivesFailingDial(t *testing.T) {
	srv := NewShardServer(frontier.NewSharded(4))
	t.Cleanup(func() { srv.Close() })
	// Dial 1 is the client's eager connect; dial 2 — the first redial
	// after the drop below — fails.
	fd := &failingDialer{inner: srv.Pipe, fail: 2}
	opts := fastRetry
	opts.t.conns = 1
	rs, err := Dial([]Dialer{fd.dial}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	rs.Push("http://site001.com/a", 0, 0)
	if dropPooledConns(rs) != 1 {
		t.Fatal("expected one pooled conn")
	}
	rs.Push("http://site001.com/b", 0, 0)
	if err := rs.Err(); err != nil {
		t.Fatalf("one failing dial became sticky: %v", err)
	}
	if got := fd.calls.Load(); got < 3 {
		t.Fatalf("dialer called %d times, want >= 3 (initial, failed redial, retried redial)", got)
	}
	if n := rs.Len(); n != 2 {
		t.Fatalf("Len = %d after recovery, want 2", n)
	}
	if e, ok := rs.PopDue(1); !ok || e.URL != "http://site001.com/a" {
		t.Fatalf("PopDue after recovery = %+v, %v", e, ok)
	}
}

// flakyConn drops the connection after a fixed number of reads: the
// response of the in-flight op may already be applied server-side, so
// the retry must hit the dedup cache rather than re-apply.
type flakyConn struct {
	net.Conn
	reads atomic.Int64
	limit int64
}

func (c *flakyConn) Read(p []byte) (int, error) {
	if c.reads.Add(1) > c.limit {
		c.Conn.Close()
		return 0, errors.New("injected connection drop")
	}
	return c.Conn.Read(p)
}

// TestFlakyTransportKeepsPopOrder runs a full push/pop sequence over
// connections that die every few reads. Exactly-once request dedup on
// the server must keep the pop sequence bit-identical to a local
// frontier — no lost and no doubled entries — with no sticky error.
func TestFlakyTransportKeepsPopOrder(t *testing.T) {
	srv := NewShardServer(frontier.NewSharded(8))
	t.Cleanup(func() { srv.Close() })
	dial := func() (net.Conn, error) {
		conn, err := srv.Pipe()
		if err != nil {
			return nil, err
		}
		return &flakyConn{Conn: conn, limit: 7}, nil
	}
	rs, err := Dial([]Dialer{dial}, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	local := frontier.NewSharded(8)
	urls := testURLs(12, 4)
	for i, u := range urls {
		due, prio := float64((i*7)%13), float64(i%3)
		local.Push(u, due, prio)
		rs.Push(u, due, prio)
	}
	for now := 0.0; now < 14; now++ {
		for {
			le, lok := local.PopDue(now)
			re, rok := rs.PopDue(now)
			if lok != rok {
				t.Fatalf("day %v: ok %v vs %v (err: %v)", now, rok, lok, rs.Err())
			}
			if !lok {
				break
			}
			if !sameEntry(le, re) {
				t.Fatalf("day %v: pop %+v vs %+v", now, re, le)
			}
			if int(le.Due)%2 == 0 {
				local.Push(le.URL, le.Due+20, le.Priority)
				rs.Push(re.URL, re.Due+20, re.Priority)
			}
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("flaky transport became sticky: %v", err)
	}
}

// TestFlakyTransportKeepsRoundPopOrder extends the flaky-transport
// contract to the engine's batched round protocol: a full sequence of
// ApplyRound calls — pops consumed from candidate prefixes, drops,
// reschedules, candidate refreshes — over connections that die every
// few reads must produce bit-identical candidates and final frontier
// state to the same rounds against a local Sharded, with no sticky
// error. Retried opRound frames hit the server's request-ID dedup, so
// a round is applied exactly once even when its response was lost.
func TestFlakyTransportKeepsRoundPopOrder(t *testing.T) {
	srv := NewShardServer(frontier.NewSharded(8))
	t.Cleanup(func() { srv.Close() })
	dial := func() (net.Conn, error) {
		conn, err := srv.Pipe()
		if err != nil {
			return nil, err
		}
		return &flakyConn{Conn: conn, limit: 9}, nil
	}
	rs, err := Dial([]Dialer{dial}, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	local := frontier.NewSharded(8)
	urls := testURLs(12, 4)
	entries := make([]frontier.Entry, 0, len(urls))
	for i, u := range urls {
		entries = append(entries, frontier.Entry{URL: u, Due: float64((i * 7) % 13), Priority: float64(i % 3)})
	}
	const peek = 6
	sameCands := func(a, b []frontier.Entry) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !sameEntry(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	// Seed both sides through the round op itself.
	lc, lb, lbok, lok := local.ApplyRound(nil, nil, entries, peek)
	rc, rb, rbok, rok := rs.ApplyRound(nil, nil, entries, peek)
	if !lok || !rok {
		t.Fatalf("ApplyRound refused: local=%v remote=%v", lok, rok)
	}
	for round := 0; len(lc) > 0; round++ {
		if !sameCands(lc, rc) || lbok != rbok || (lbok && !sameEntry(lb, rb)) {
			t.Fatalf("round %d: candidates diverge\nremote: %+v (%v %v)\nlocal:  %+v (%v %v)",
				round, rc, rb, rbok, lc, lb, lbok)
		}
		// Consume up to 3 candidates as pops, reschedule every other
		// one, and drop the rest — one engine dispatch round.
		n := min(3, len(lc))
		pops := make([]string, 0, n)
		var pushes []frontier.Entry
		var removes []string
		for i := 0; i < n; i++ {
			pops = append(pops, lc[i].URL)
			if i%2 == 0 && lc[i].Due < 50 {
				// Reschedule once (past the original due range, so the
				// sequence terminates); drop everything else.
				pushes = append(pushes, frontier.Entry{URL: lc[i].URL, Due: lc[i].Due + 50, Priority: lc[i].Priority})
			} else {
				removes = append(removes, lc[i].URL)
			}
		}
		lc, lb, lbok, lok = local.ApplyRound(pops, removes, pushes, peek)
		rc, rb, rbok, rok = rs.ApplyRound(pops, removes, pushes, peek)
		if !lok || !rok {
			t.Fatalf("round %d refused: local=%v remote=%v", round, lok, rok)
		}
		if round > 100 {
			t.Fatal("rounds did not converge")
		}
	}
	if len(rc) != 0 {
		t.Fatalf("remote still has candidates: %+v", rc)
	}
	lu, ru := local.URLs(), rs.URLs()
	if len(lu) != len(ru) {
		t.Fatalf("final state diverges: %d vs %d URLs", len(lu), len(ru))
	}
	for i := range lu {
		if lu[i] != ru[i] {
			t.Fatalf("final state diverges at %d: %s vs %s", i, lu[i], ru[i])
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("flaky transport became sticky: %v", err)
	}
}

// roundBody encodes an opRound request as the client does.
func roundBody(reqID uint64, pops, removes []string, pushes []frontier.Entry, peekMax int) []byte {
	var e enc
	e.fix64(reqID)
	encodeStrings(&e, "", pops)
	encodeStrings(&e, "", removes)
	encodeEntries(&e, pushes)
	e.u32(uint32(peekMax))
	return e.b
}

// TestRoundRetryRepeeks pins what the server keeps of an applied round
// and what it answers a retry with: the round is remembered as applied,
// without its candidate list; the retry applies nothing and gets a
// fresh peek at its own peekMax — equal to the first reply while the
// queue has not moved, and the queue as it is now if it has.
func TestRoundRetryRepeeks(t *testing.T) {
	srv := NewShardServer(frontier.NewSharded(4))
	t.Cleanup(func() { srv.Close() })
	var seed []frontier.Entry
	for i, u := range testURLs(6, 2) {
		seed = append(seed, frontier.Entry{URL: u, Due: float64(1 + i%5), Priority: float64(i % 2)})
	}
	const id, peek = 4242, 3
	body := roundBody(id, nil, nil, seed, peek)
	st1, resp1 := srv.handle(opRound, body)
	if st1 != statusOK {
		t.Fatalf("round: %s", resp1)
	}
	if st, kept, ok := srv.dedup.get(id); !ok || st != statusOK || len(kept) != 0 {
		t.Fatalf("applied round memoized as (%d, %d bytes, %v), want applied with no body", st, len(kept), ok)
	}
	decode := func(resp []byte) []frontier.Entry {
		d := newDec(resp)
		cands := decodeEntries(d)
		d.bool()
		if err := d.finish(); err != nil {
			t.Fatalf("bad round reply: %v", err)
		}
		return cands
	}
	if n := len(decode(resp1)); n != peek {
		t.Fatalf("first reply carries %d candidates, want %d", n, peek)
	}
	before := srv.Shards().Len()
	st2, resp2 := srv.handle(opRound, body)
	if st2 != statusOK || string(resp2) != string(resp1) {
		t.Fatalf("retry over an unmoved queue answered (%d, %q), first reply was %q", st2, resp2, resp1)
	}
	// A new global head lands between the lost reply and the retry.
	pushVia(t, srv, 4243, "http://site900.com/head", 0, 9)
	st3, resp3 := srv.handle(opRound, body)
	if st3 != statusOK {
		t.Fatalf("retry: %s", resp3)
	}
	cands := decode(resp3)
	if len(cands) != peek || cands[0].URL != "http://site900.com/head" {
		t.Fatalf("retry did not peek afresh: %+v", cands)
	}
	if got := srv.Shards().Len(); got != before+1 {
		t.Fatalf("retries re-applied the round: Len %d, want %d", got, before+1)
	}
}

// replyDropConn loses one reply on demand: when armed, the next Read —
// the response to a request the server has already received whole, and
// applies regardless — closes the connection instead.
type replyDropConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c *replyDropConn) Read(p []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("injected reply loss")
	}
	return c.Conn.Read(p)
}

// TestRoundReplyLostKeepsPopOrder drives engine-shaped rounds against
// one WAL-backed server and loses the reply of some of them: plainly,
// and with the server compacting its WAL and restarting before the
// retry arrives, so the retry is recognised from the snapshot's dedup
// records. Every round must be logged — applied — exactly once, and
// the candidates the client sees must equal, round for round, those of
// the same rounds against an undisturbed local frontier.
func TestRoundReplyLostKeepsPopOrder(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 8)
	t.Cleanup(func() { srv.Close() })
	var armed, restart atomic.Bool
	restarts := 0
	dial := func() (net.Conn, error) {
		if restart.CompareAndSwap(true, false) {
			// Close waits for the handler of the lost reply, so the round
			// is applied and logged; the snapshot then replaces the log.
			srv.Close()
			if err := srv.CompactWAL(); err != nil {
				return nil, err
			}
			srv = newWALServer(t, dir, 8)
			restarts++
		}
		conn, err := srv.Pipe()
		if err != nil {
			return nil, err
		}
		return &replyDropConn{Conn: conn, armed: &armed}, nil
	}
	opts := fastRetry
	opts.t.conns = 1
	rs, err := Dial([]Dialer{dial}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	local := frontier.NewSharded(8)
	var entries []frontier.Entry
	for i, u := range testURLs(12, 4) {
		entries = append(entries, frontier.Entry{URL: u, Due: float64((i * 7) % 13), Priority: float64(i % 3)})
	}
	const peek = 6
	appends := walAppends.Value()
	retries := metricsFor(opRound).clientRetries.Value()
	lc, lb, lbok, _ := local.ApplyRound(nil, nil, entries, peek)
	rc, rb, rbok, _ := rs.ApplyRound(nil, nil, entries, peek)
	rounds := 1
	for ; len(lc) > 0; rounds++ {
		if len(lc) != len(rc) || lbok != rbok || (lbok && !sameEntry(lb, rb)) {
			t.Fatalf("round %d: candidates diverge\nremote: %+v\nlocal:  %+v", rounds, rc, lc)
		}
		for i := range lc {
			if !sameEntry(lc[i], rc[i]) {
				t.Fatalf("round %d: candidate %d is %+v, want %+v", rounds, i, rc[i], lc[i])
			}
		}
		// One engine round: pop three, reschedule two of them once, drop
		// the third.
		n := min(3, len(lc))
		var pops, removes []string
		var pushes []frontier.Entry
		for i := 0; i < n; i++ {
			pops = append(pops, lc[i].URL)
			if i < 2 && lc[i].Due < 50 {
				pushes = append(pushes, frontier.Entry{URL: lc[i].URL, Due: lc[i].Due + 50, Priority: lc[i].Priority})
			} else {
				removes = append(removes, lc[i].URL)
			}
		}
		switch rounds % 5 {
		case 1:
			armed.Store(true)
		case 3:
			armed.Store(true)
			restart.Store(true)
		}
		lc, lb, lbok, _ = local.ApplyRound(pops, removes, pushes, peek)
		rc, rb, rbok, _ = rs.ApplyRound(pops, removes, pushes, peek)
		if rounds > 200 {
			t.Fatal("rounds did not converge")
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("lost replies became sticky: %v", err)
	}
	if len(rc) != 0 {
		t.Fatalf("remote still has candidates: %+v", rc)
	}
	lost := metricsFor(opRound).clientRetries.Value() - retries
	// Besides the rounds, the log takes one politeness record per
	// reconnect hello — one per lost reply.
	if got := walAppends.Value() - appends - lost; got != int64(rounds) {
		t.Fatalf("%d rounds logged %d times: a retried round was applied again", rounds, got)
	}
	if restarts < 2 || lost < int64(2*restarts) {
		t.Fatalf("only %d replies lost and %d restarts: the test exercised nothing", lost, restarts)
	}
	lu, ru := local.URLs(), rs.URLs()
	if fmt.Sprint(lu) != fmt.Sprint(ru) {
		t.Fatalf("final state diverges:\nremote %v\nlocal  %v", ru, lu)
	}
}

// TestApplyRoundRefusedWithPoliteness: the round protocol is only
// sound with a zero politeness gap; both halves must refuse it rather
// than serve politeness-blind candidates. In-process the refusal is
// ok=false. Every client's hello sends a zero gap, so the gap is set on
// the server after the handshake (over the client's one connection; a
// second would send the hello again): the server refuses with an error,
// which becomes the client's sticky error, with nothing applied.
func TestApplyRoundRefusedWithPoliteness(t *testing.T) {
	local := frontier.NewShardedPolite(4, 0.5)
	if _, _, _, ok := local.ApplyRound(nil, nil, nil, 4); ok {
		t.Fatal("Sharded.ApplyRound accepted a politeness gap")
	}
	srv := NewShardServer(frontier.NewSharded(4))
	t.Cleanup(func() { srv.Close() })
	rs, err := Loopback([]*ShardServer{srv}, Options{t: transport{conns: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	srv.Shards().SetPoliteness(0.5)
	cands, _, _, _ := rs.ApplyRound(nil, nil, []frontier.Entry{{URL: "http://a.example/"}}, 4)
	if len(cands) != 0 {
		t.Fatalf("a polite server served candidates %+v", cands)
	}
	if err := rs.Err(); err == nil || !strings.Contains(err.Error(), "zero politeness gap") {
		t.Fatalf("refusal surfaced as %v, want the server's error", err)
	}
	if n := srv.Shards().Len(); n != 0 {
		t.Fatalf("a refused round applied %d pushes", n)
	}
}

// TestMutatingRetryAppliesOnce pins the dedup contract at the protocol
// level: replaying a claim with the same request ID returns the
// memoized response and pops nothing further.
func TestMutatingRetryAppliesOnce(t *testing.T) {
	srv := NewShardServer(frontier.NewSharded(2))
	srv.Shards().Push("http://site001.com/a", 0, 0)
	srv.Shards().Push("http://site002.com/b", 0, 1)

	var body enc
	body.fix64(42).f64(10)
	st1, resp1 := srv.handle(opClaimDue, body.b)
	if st1 != statusOK {
		t.Fatalf("claim failed: %s", resp1)
	}
	before := srv.Shards().Len()
	st2, resp2 := srv.handle(opClaimDue, body.b)
	if st2 != st1 || string(resp2) != string(resp1) {
		t.Fatalf("retried claim not deduped: (%d,%q) vs (%d,%q)", st2, resp2, st1, resp1)
	}
	if after := srv.Shards().Len(); after != before {
		t.Fatalf("retried claim re-applied: Len %d -> %d", before, after)
	}
	// A different request ID is a genuinely new claim.
	var body2 enc
	body2.fix64(43).f64(10)
	if st, resp := srv.handle(opClaimDue, body2.b); st != statusOK {
		t.Fatalf("fresh claim failed: %s", resp)
	} else if srv.Shards().Len() != before-1 {
		t.Fatal("fresh claim did not pop")
	}
}

// TestBatchedPushRoundTrips is the acceptance check for the batched
// push path: shipping a dispatch round's reschedules as PushBatch must
// cost at least 5x fewer round trips than per-URL pushes, with
// identical resulting frontier state.
func TestBatchedPushRoundTrips(t *testing.T) {
	const n = 64
	entries := make([]frontier.Entry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, frontier.Entry{
			URL: fmt.Sprintf("http://site%03d.com/p%05d", i%16, i),
			Due: float64(i % 7), Priority: float64(i % 3),
		})
	}
	for _, nServers := range []int{1, 2} {
		batched, _ := newCluster(t, nServers, 4)
		perURL, _ := newCluster(t, nServers, 4)

		t0 := batched.RoundTrips()
		batched.PushBatch(entries)
		batchedTrips := batched.RoundTrips() - t0

		t0 = perURL.RoundTrips()
		for _, e := range entries {
			perURL.Push(e.URL, e.Due, e.Priority)
		}
		perURLTrips := perURL.RoundTrips() - t0

		if batchedTrips > int64(nServers) {
			t.Fatalf("%d servers: PushBatch cost %d round trips, want <= %d", nServers, batchedTrips, nServers)
		}
		if perURLTrips < 5*batchedTrips {
			t.Fatalf("%d servers: batched pushes only %dx cheaper (%d vs %d round trips)",
				nServers, perURLTrips/max(batchedTrips, 1), perURLTrips, batchedTrips)
		}
		bu, pu := batched.URLs(), perURL.URLs()
		if len(bu) != len(pu) {
			t.Fatalf("%d servers: URLs %d vs %d", nServers, len(bu), len(pu))
		}
		for i := range bu {
			if bu[i] != pu[i] {
				t.Fatalf("%d servers: state diverges at %d: %s vs %s", nServers, i, bu[i], pu[i])
			}
		}
		if err := batched.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPushBatchChunksLargeBatches: a batch larger than one frame's
// chunk cap ships as multiple valid frames (a full frontier rebuild
// must never produce an oversized, unsendable frame).
func TestPushBatchChunksLargeBatches(t *testing.T) {
	n := pushBatchChunk + 100
	entries := make([]frontier.Entry, n)
	for i := range entries {
		entries[i] = frontier.Entry{
			URL: fmt.Sprintf("http://site%03d.com/p%06d", i%40, i),
			Due: float64(i % 13), Priority: float64(i % 3),
		}
	}
	rs, _ := newCluster(t, 1, 4)
	t0 := rs.RoundTrips()
	rs.PushBatch(entries)
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if got := rs.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	// 2 chunk frames, plus the Len fan and up to two lazy-dial hello
	// handshakes — nowhere near one frame per URL.
	trips := rs.RoundTrips() - t0
	if trips < 2 || trips > 5 {
		t.Fatalf("large batch cost %d round trips, want 2 chunks (+Len/hello slack)", trips)
	}
}
