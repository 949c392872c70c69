package cluster

import (
	"bytes"
	"fmt"
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
		wrote, err := writeFrame(&buf, opPush, body)
		if err != nil || wrote != buf.Len() {
			t.Fatalf("writeFrame reported %d bytes, wrote %d: %v", wrote, buf.Len(), err)
		}
		if flags := buf.Bytes()[10]; flags != 0 || wrote != len(body)+11 {
			t.Fatalf("a %dB body went out as %dB with flags %#x, want %dB raw", len(body), wrote, flags, len(body)+11)
		}
		kind, got, wire, err := readFrame(&buf)
		if err != nil || kind != opPush || !bytes.Equal(got, body) {
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
// zero politeness, the pop sequence through RemoteShards equals the
// local Sharded's regardless of how shards are spread across servers.
func TestRemoteMatchesLocalPopOrder(t *testing.T) {
	urls := testURLs(12, 6)
	for _, topo := range []struct{ servers, shardsEach int }{
		{1, 8}, {2, 4}, {4, 8},
	} {
		local := frontier.NewSharded(8)
		remote, _ := newCluster(t, topo.servers, topo.shardsEach)
		for i, u := range urls {
			due := float64((i * 7) % 13)
			prio := float64(i % 3)
			local.Push(u, due, prio)
			remote.Push(u, due, prio)
		}
		if local.Len() != remote.Len() {
			t.Fatalf("%d servers: Len %d vs %d", topo.servers, remote.Len(), local.Len())
		}
		lu, ru := local.URLs(), remote.URLs()
		if len(lu) != len(ru) {
			t.Fatalf("%d servers: URLs %d vs %d", topo.servers, len(ru), len(lu))
		}
		for i := range lu {
			if lu[i] != ru[i] {
				t.Fatalf("%d servers: URLs diverge at %d: %s vs %s", topo.servers, i, ru[i], lu[i])
			}
		}
		for now := 0.0; now < 14; now++ {
			for {
				le, lok := local.PopDue(now)
				re, rok := remote.PopDue(now)
				if lok != rok {
					t.Fatalf("%d servers: day %v: ok %v vs %v", topo.servers, now, rok, lok)
				}
				if !lok {
					break
				}
				if !sameEntry(le, re) {
					t.Fatalf("%d servers: day %v: pop %+v vs %+v", topo.servers, now, re, le)
				}
				// Reschedule half the pops to exercise Push during drain.
				if int(le.Due)%2 == 0 {
					local.Push(le.URL, le.Due+20, le.Priority)
					remote.Push(re.URL, re.Due+20, re.Priority)
				}
			}
		}
		if err := remote.Err(); err != nil {
			t.Fatalf("%d servers: %v", topo.servers, err)
		}
	}
}

// TestRemoteMatchesLocalWithPoliteness pins the politeness-gap path of
// the per-entry ops: with one server hosting the same shard layout and
// the same gap, remote and local pop identical (possibly
// politeness-deferred) sequences, and NextEvent agrees. Every client's
// hello sends a zero gap, so the gap is set on the server after the
// handshake, and the client keeps one connection: a lazily dialed
// second one would send the zero-gap hello again.
func TestRemoteMatchesLocalWithPoliteness(t *testing.T) {
	const gap = 2.0
	local := frontier.NewShardedPolite(4, gap)
	srv := NewShardServer(frontier.NewSharded(4))
	t.Cleanup(func() { srv.Close() })
	remote, err := Loopback([]*ShardServer{srv}, Options{t: transport{conns: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	if got := srv.Shards().Politeness(); got != 0 {
		t.Fatalf("hello set gap %v, want 0", got)
	}
	srv.Shards().SetPoliteness(gap)
	urls := testURLs(8, 3)
	for i, u := range urls {
		local.Push(u, float64(i%5), 0)
		remote.Push(u, float64(i%5), 0)
	}
	for now := 0.0; now < 30; now += 0.5 {
		for {
			le, lok := local.PopDue(now)
			re, rok := remote.PopDue(now)
			if lok != rok {
				t.Fatalf("day %v: ok %v vs %v", now, rok, lok)
			}
			if !lok {
				break
			}
			if !sameEntry(le, re) {
				t.Fatalf("day %v: pop %+v vs %+v", now, re, le)
			}
		}
		lt, lok := local.NextEvent()
		rt, rok := remote.NextEvent()
		if lok != rok || (lok && lt != rt) {
			t.Fatalf("day %v: NextEvent (%v,%v) vs (%v,%v)", now, rt, rok, lt, lok)
		}
	}
}

// TestRemoteClaimRelease checks exclusive claims across the wire: a
// claimed shard yields nothing until released, and the global shard
// index maps back to the right server.
func TestRemoteClaimRelease(t *testing.T) {
	remote, _ := newCluster(t, 2, 4)
	urls := testURLs(10, 2)
	for _, u := range urls {
		remote.Push(u, 0, 0)
	}
	claimed := make(map[int]bool)
	var held []int
	for {
		e, sid, ok := remote.ClaimDue(100)
		if !ok {
			break
		}
		if sid < 0 || sid >= remote.NumShards() {
			t.Fatalf("claimed shard %d out of range [0,%d)", sid, remote.NumShards())
		}
		if claimed[sid] {
			t.Fatalf("shard %d claimed twice without release", sid)
		}
		if want := remote.ShardOf(e.URL); want != sid {
			t.Fatalf("entry %s from shard %d, ShardOf says %d", e.URL, sid, want)
		}
		claimed[sid] = true
		held = append(held, sid)
	}
	// All distinct occupied shards are now held; the queue still has
	// entries but nothing is claimable.
	if remote.Len() == 0 {
		t.Fatal("expected entries left behind claimed shards")
	}
	if _, _, ok := remote.ClaimDue(100); ok {
		t.Fatal("claim succeeded with every shard held")
	}
	for _, sid := range held {
		remote.Release(sid, 0)
	}
	if _, _, ok := remote.ClaimDue(100); !ok {
		t.Fatal("claim failed after release")
	}
	if err := remote.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteRemoveContainsPeek covers the remaining ops over the wire.
func TestRemoteRemoveContainsPeek(t *testing.T) {
	remote, _ := newCluster(t, 2, 2)
	remote.Push("http://site001.com/a", 5, 1)
	remote.Push("http://site002.com/b", 3, 0)
	if !remote.Contains("http://site001.com/a") {
		t.Fatal("Contains missed a pushed URL")
	}
	if remote.Contains("http://site001.com/zzz") {
		t.Fatal("Contains invented a URL")
	}
	if e, ok := remote.Peek(); !ok || e.URL != "http://site002.com/b" {
		t.Fatalf("Peek = %+v, %v", e, ok)
	}
	if ev, ok := remote.NextEvent(); !ok || ev != 3 {
		t.Fatalf("NextEvent = %v, %v", ev, ok)
	}
	if !remote.Remove("http://site002.com/b") {
		t.Fatal("Remove missed a pushed URL")
	}
	if remote.Remove("http://site002.com/b") {
		t.Fatal("Remove repeated")
	}
	if n := remote.Len(); n != 1 {
		t.Fatalf("Len = %d", n)
	}
	lens := remote.ShardLens()
	if len(lens) != remote.NumShards() {
		t.Fatalf("ShardLens returned %d shards, want %d", len(lens), remote.NumShards())
	}
	total := 0
	for _, n := range lens {
		total += n
	}
	if total != 1 {
		t.Fatalf("ShardLens total = %d", total)
	}
	if err := remote.Err(); err != nil {
		t.Fatal(err)
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
	for i, u := range urls {
		remote.Push(u, float64(i%4), 0)
	}
	if n := remote.Len(); n != len(urls) {
		t.Fatalf("Len = %d, want %d", n, len(urls))
	}
	popped := 0
	for {
		_, ok := remote.PopDue(10)
		if !ok {
			break
		}
		popped++
	}
	if popped != len(urls) {
		t.Fatalf("popped %d, want %d", popped, len(urls))
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
	remote.Push("http://site001.com/a", 0, 0)
	servers[0].Close()
	// The pooled connections are now closed; the next op must fail.
	remote.Push("http://site001.com/b", 0, 0)
	if err := remote.Err(); err == nil {
		t.Fatal("no sticky error after server close")
	}
	if _, ok := remote.PopDue(10); ok {
		t.Fatal("PopDue succeeded on a failed cluster")
	}
	if n := remote.Len(); n != 0 {
		t.Fatalf("Len = %d on a failed cluster", n)
	}
}
