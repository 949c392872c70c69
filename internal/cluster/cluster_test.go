package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"webevolve/internal/frontier"
)

// TestFrameRoundTrip: every body travels raw, whatever its size or
// however well it would compress — flags 0, the body plus the 11-byte
// header on the wire — and comes back whole, both ends agreeing on the
// wire size.
func TestFrameRoundTrip(t *testing.T) {
	for _, body := range [][]byte{
		{},
		[]byte("hello shard world"),
		bytes.Repeat([]byte("page"), 1<<10),
		bytes.Repeat([]byte("http://site0.com"), 1<<16), // 1 MiB
	} {
		var buf bytes.Buffer
		wrote, err := writeFrame(&buf, opRound, body)
		if err != nil || wrote != buf.Len() {
			t.Fatalf("writeFrame reported %d bytes, wrote %d: %v", wrote, buf.Len(), err)
		}
		if flags := buf.Bytes()[10]; flags != 0 || wrote != len(body)+11 {
			t.Fatalf("a %dB body went out as %dB with flags %#x, want %dB raw", len(body), wrote, flags, len(body)+11)
		}
		kind, got, wire, err := readFrame(&buf)
		if err != nil || kind != opRound || !bytes.Equal(got, body) {
			t.Fatalf("frame mangled: kind=%d body=%q: %v", kind, got, err)
		}
		if wire != wrote {
			t.Fatalf("readFrame consumed %d bytes, writeFrame wrote %d", wire, wrote)
		}
	}
}

// namesVersions reports whether msg names version ver and our own.
func namesVersions(msg string, ver byte) bool {
	return strings.Contains(msg, fmt.Sprintf("version %d ", ver)) &&
		strings.Contains(msg, fmt.Sprintf("version %d)", ProtoVersion))
}

func TestBodyCodecRoundTrip(t *testing.T) {
	var e enc
	e.u32(42).f64(3.25).bool(true).str("http://site000.com/p00001").bool(false)
	d := &dec{b: e.b}
	if v := d.u32(); v != 42 {
		t.Fatalf("u32 = %d", v)
	}
	if v := d.f64(); v != 3.25 {
		t.Fatalf("f64 = %v", v)
	}
	if !d.bool() {
		t.Fatal("bool true lost")
	}
	if v := d.str(); v != "http://site000.com/p00001" {
		t.Fatalf("str = %q", v)
	}
	if d.bool() {
		t.Fatal("bool false lost")
	}
	if err := d.finish(); err != nil {
		t.Fatal(err)
	}
	// Over-read poisons the decoder rather than panicking.
	if d.u32() != 0 || d.finish() == nil {
		t.Fatal("over-read not caught")
	}
}

// newCluster starts n loopback servers with shardsEach shards and dials
// them; callers get the client plus the servers for direct inspection.
func newCluster(t testing.TB, n, shardsEach int) (*RemoteShards, []*ShardServer) {
	t.Helper()
	servers := make([]*ShardServer, n)
	for i := range servers {
		servers[i] = NewShardServer(frontier.NewSharded(shardsEach))
	}
	rs, err := Loopback(servers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rs.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	return rs, servers
}

// sameEntry compares the wire-visible fields (the local Entry also
// carries an unexported heap index).
func sameEntry(a, b frontier.Entry) bool {
	return a.URL == b.URL && a.Due == b.Due && a.Priority == b.Priority
}

// testURLs builds a deterministic URL population across many hosts.
func testURLs(hosts, pagesPerHost int) []string {
	var out []string
	for h := 0; h < hosts; h++ {
		for p := 0; p < pagesPerHost; p++ {
			out = append(out, fmt.Sprintf("http://site%03d.com/p%05d", h, p))
		}
	}
	return out
}

// TestRemoteMatchesLocalPopOrder is the protocol's core contract: with
// zero politeness, the pop sequence of a crawl's round adapter
// (frontier.Rounds) over RemoteShards equals the one over the local
// Sharded, regardless of how shards are spread across servers — with
// reschedules and drops committed during the drain.
func TestRemoteMatchesLocalPopOrder(t *testing.T) {
	urls := testURLs(12, 6)
	var seed []frontier.Entry
	for i, u := range urls {
		seed = append(seed, frontier.Entry{URL: u, Due: float64((i * 7) % 13), Priority: float64(i % 3)})
	}
	for _, topo := range []struct{ servers, shardsEach int }{
		{1, 8}, {2, 4}, {4, 8},
	} {
		local := frontier.NewSharded(8)
		remote, _ := newCluster(t, topo.servers, topo.shardsEach)
		lr, rr := frontier.NewRounds(local, 4), frontier.NewRounds(remote, 4)
		commit := func(removes []string, pushes []frontier.Entry, wantCands bool) {
			t.Helper()
			if err := lr.Commit(removes, pushes, wantCands); err != nil {
				t.Fatalf("%d servers: local commit: %v", topo.servers, err)
			}
			if err := rr.Commit(removes, pushes, wantCands); err != nil {
				t.Fatalf("%d servers: remote commit: %v", topo.servers, err)
			}
		}
		commit(nil, seed, false)
		if local.Len() != remote.Len() {
			t.Fatalf("%d servers: Len %d vs %d", topo.servers, remote.Len(), local.Len())
		}
		if lu, ru := local.URLs(), remote.URLs(); !reflect.DeepEqual(lu, ru) {
			t.Fatalf("%d servers: URLs diverge:\nremote %v\nlocal  %v", topo.servers, ru, lu)
		}
		pops := 0
		for now := 0.0; now < 14; now++ {
			for {
				le, lok := lr.PopDue(now)
				re, rok := rr.PopDue(now)
				if lok != rok {
					t.Fatalf("%d servers: day %v: ok %v vs %v", topo.servers, now, rok, lok)
				}
				if !lok {
					break
				}
				if !sameEntry(le, re) {
					t.Fatalf("%d servers: day %v: pop %+v vs %+v", topo.servers, now, re, le)
				}
				pops++
				// Reschedule half the pops and drop a queued URL now and
				// then, as a crawl's commits do.
				var removes []string
				var pushes []frontier.Entry
				if int(le.Due)%2 == 0 {
					pushes = append(pushes, frontier.Entry{URL: le.URL, Due: le.Due + 20, Priority: le.Priority})
				}
				if pops%5 == 0 {
					removes = append(removes, urls[pops*7%len(urls)])
				}
				commit(removes, pushes, true)
			}
		}
		if err := lr.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := rr.Flush(); err != nil {
			t.Fatalf("%d servers: %v", topo.servers, err)
		}
		if lu, ru := local.URLs(), remote.URLs(); !reflect.DeepEqual(lu, ru) {
			t.Fatalf("%d servers: final queues diverge:\nremote %v\nlocal  %v", topo.servers, ru, lu)
		}
		if err := remote.Err(); err != nil {
			t.Fatalf("%d servers: %v", topo.servers, err)
		}
	}
}

// seedRemote pushes entries through one round, as a crawl seeds its
// frontier.
func seedRemote(t testing.TB, rs *RemoteShards, entries []frontier.Entry) {
	t.Helper()
	rs.ApplyRound(nil, nil, entries, 0)
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteShardOfMatchesServers: the global shard index ShardOf gives
// a URL is the offset of the server a round routes it to plus that
// server's own shard for it.
func TestRemoteShardOfMatchesServers(t *testing.T) {
	remote, servers := newCluster(t, 3, 4)
	urls := testURLs(20, 2)
	var seed []frontier.Entry
	for _, u := range urls {
		seed = append(seed, frontier.Entry{URL: u})
	}
	seedRemote(t, remote, seed)
	for _, u := range urls {
		holders := 0
		for si, srv := range servers {
			if !srv.Shards().Contains(u) {
				continue
			}
			holders++
			if got, want := remote.ShardOf(u), 4*si+srv.Shards().ShardOf(u); got != want {
				t.Fatalf("%s: ShardOf %d, but server %d holds it in its shard %d", u, got, si, want-4*si)
			}
		}
		if holders != 1 {
			t.Fatalf("%s is held by %d servers", u, holders)
		}
	}
}

// TestRemoteOverTCP runs the client against real TCP listeners.
func TestRemoteOverTCP(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := NewShardServer(frontier.NewSharded(4))
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go srv.Serve() //nolint:errcheck — exits with ErrServerClosed on Close
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr().String())
	}
	remote, err := DialTCP(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	urls := testURLs(6, 4)
	var seed []frontier.Entry
	for i, u := range urls {
		seed = append(seed, frontier.Entry{URL: u, Due: float64(i % 4)})
	}
	seedRemote(t, remote, seed)
	if n := remote.Len(); n != len(urls) {
		t.Fatalf("Len = %d, want %d", n, len(urls))
	}
	r := frontier.NewRounds(remote, 4)
	popped := 0
	for {
		if _, ok := r.PopDue(10); !ok {
			break
		}
		popped++
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if popped != len(urls) || remote.Len() != 0 {
		t.Fatalf("popped %d, want %d; %d left", popped, len(urls), remote.Len())
	}
	if err := remote.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteStickyError checks the failure contract: after the cluster
// goes away for good (retries disabled here, so the first failure is
// final), operations return zero values and Err reports the first
// transport error.
func TestRemoteStickyError(t *testing.T) {
	servers := []*ShardServer{NewShardServer(frontier.NewSharded(4))}
	remote, err := Loopback(servers, Options{t: transport{retries: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	seedRemote(t, remote, []frontier.Entry{{URL: "http://site001.com/a"}})
	servers[0].Close()
	// The pooled connections are now closed; the next op must fail.
	remote.ApplyRound(nil, nil, []frontier.Entry{{URL: "http://site001.com/b"}}, 0)
	if err := remote.Err(); err == nil {
		t.Fatal("no sticky error after server close")
	}
	if cands, _, _, _ := remote.ApplyRound(nil, nil, nil, 4); len(cands) != 0 {
		t.Fatalf("ApplyRound served %+v on a failed cluster", cands)
	}
	if n := remote.Len(); n != 0 {
		t.Fatalf("Len = %d on a failed cluster", n)
	}
}

// TestRetiredShardOpsRefused: the per-entry frontier ops and the hello
// that carried a politeness gap are retired, and their numbers are
// never reused. A server answers each with an
// unknown-opcode error naming it, and applies nothing; the client's
// per-entry methods send nothing and record an error naming the
// method.
func TestRetiredShardOpsRefused(t *testing.T) {
	srv := NewShardServer(frontier.NewSharded(2))
	defer srv.Close()
	for op, name := range map[byte]string{
		retiredHello:       "retired_hello",
		retiredPush:        "retired_push",
		retiredPopDue:      "retired_pop_due",
		retiredClaimDue:    "retired_claim_due",
		retiredHeadDue:     "retired_head_due",
		retiredPopDueMatch: "retired_pop_due_match",
		retiredRelease:     "retired_release",
		retiredRemove:      "retired_remove",
		retiredContains:    "retired_contains",
		retiredPeek:        "retired_peek",
		retiredNextEvent:   "retired_next_event",
		retiredStats:       "retired_stats",
		retiredPushBatch:   "retired_push_batch",
	} {
		for _, body := range append([][]byte{nil}, seedBodies()[op]...) {
			status, resp := srv.handle(op, body)
			if status != statusError || !strings.Contains(string(resp), "unknown opcode") || !strings.Contains(string(resp), name) {
				t.Errorf("op %d answered (%d, %q), want an unknown-opcode error naming %s", op, status, resp, name)
			}
		}
	}
	if n := srv.Shards().Len(); n != 0 {
		t.Fatalf("a refused op applied: Len %d", n)
	}

	for method, call := range map[string]func(rs *RemoteShards){
		"Push":      func(rs *RemoteShards) { rs.Push("http://site001.com/a", 0, 0) },
		"PushBatch": func(rs *RemoteShards) { rs.PushBatch([]frontier.Entry{{URL: "http://site001.com/a"}}) },
		"PopDue":    func(rs *RemoteShards) { rs.PopDue(1) },
		"ClaimDue":  func(rs *RemoteShards) { rs.ClaimDue(1) },
		"Release":   func(rs *RemoteShards) { rs.Release(0, 1) },
		"Remove":    func(rs *RemoteShards) { rs.Remove("http://site001.com/a") },
		"Contains":  func(rs *RemoteShards) { rs.Contains("http://site001.com/a") },
		"Peek":      func(rs *RemoteShards) { rs.Peek() },
		"NextEvent": func(rs *RemoteShards) { rs.NextEvent() },
	} {
		rs, _ := newCluster(t, 1, 2)
		trips := rs.RoundTrips()
		call(rs)
		want := "RemoteShards." + method + " is retired"
		if err := rs.Err(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Err() = %v, want one naming %q", method, err, want)
		}
		if got := rs.RoundTrips(); got != trips {
			t.Errorf("%s sent %d frames", method, got-trips)
		}
	}
}

// TestRemoteNumShardsSumsServers: the client's shard count is the sum
// of its servers' local shard counts, and every URL maps into it.
func TestRemoteNumShardsSumsServers(t *testing.T) {
	rs, servers := newCluster(t, 3, 4)
	want := 0
	for _, s := range servers {
		want += s.shards.NumShards()
	}
	if got := rs.NumShards(); got != want || got != 12 {
		t.Fatalf("NumShards = %d, want %d", got, want)
	}
	for _, u := range testURLs(20, 1) {
		if sh := rs.ShardOf(u); sh < 0 || sh >= rs.NumShards() {
			t.Fatalf("%s maps to shard %d of %d", u, sh, rs.NumShards())
		}
	}
}

// TestRemoteResetEmptiesEveryServer: Reset leaves every server's queue
// empty, and the frontier takes a new crawl's seeds afterwards.
func TestRemoteResetEmptiesEveryServer(t *testing.T) {
	rs, servers := newCluster(t, 3, 2)
	var seed []frontier.Entry
	for i, u := range testURLs(9, 4) {
		seed = append(seed, frontier.Entry{URL: u, Due: float64(i)})
	}
	seedRemote(t, rs, seed)
	if rs.Len() != len(seed) {
		t.Fatalf("Len %d after seeding %d", rs.Len(), len(seed))
	}
	if err := rs.Reset(); err != nil {
		t.Fatal(err)
	}
	if n := rs.Len(); n != 0 {
		t.Fatalf("Len %d after Reset", n)
	}
	for i, s := range servers {
		if n := s.shards.Len(); n != 0 {
			t.Fatalf("server %d holds %d entries after Reset", i, n)
		}
	}
	seedRemote(t, rs, seed[:5])
	if got := rs.URLs(); len(got) != 5 {
		t.Fatalf("queue after reseeding: %v", got)
	}
}

// TestRemoteWireBytesCountFrames: the client's wire counters grow by at
// least a frame header per round trip in each direction, and on the
// way out by at least the due time and priority of every entry a round
// ships (URLs travel prefix-compressed, so they set no floor).
func TestRemoteWireBytesCountFrames(t *testing.T) {
	rs, _ := newCluster(t, 2, 2)
	in0, out0 := rs.WireBytes()
	trips0 := rs.RoundTrips()
	var seed []frontier.Entry
	for _, u := range testURLs(4, 3) {
		seed = append(seed, frontier.Entry{URL: u, Due: 1})
	}
	seedRemote(t, rs, seed)
	in1, out1 := rs.WireBytes()
	trips := rs.RoundTrips() - trips0
	if trips == 0 {
		t.Fatal("a round made no round trip")
	}
	if got := in1 - in0; got < 11*trips {
		t.Fatalf("%d bytes in over %d trips: less than a frame header each", got, trips)
	}
	if got, least := out1-out0, 11*trips+16*int64(len(seed)); got < least {
		t.Fatalf("%d bytes out for %d trips shipping %d entries, want at least %d", got, trips, len(seed), least)
	}
}
