package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webevolve/internal/frontier"
	"webevolve/internal/store"
)

func storeRec(url string, sum uint64) store.PageRecord {
	return store.PageRecord{
		URL: url, Checksum: sum, FetchedAt: 1.5, Version: 3,
		Links:      []string{"http://x.com/a", "http://x.com/b"},
		Importance: 0.25,
	}
}

// TestRemoteStoreRoundTrip drives every Collection op over loopback and
// checks the results against a local Mem collection.
func TestRemoteStoreRoundTrip(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	remote := rs.Collection("pages")
	local := store.NewMem()
	defer local.Close()

	var batch []store.PageRecord
	for i := 0; i < 40; i++ {
		r := storeRec(fmt.Sprintf("http://s%02d.com/p%03d", i%5, i), uint64(i))
		if i == 7 {
			r.Content = []byte("<html>body</html>")
		}
		batch = append(batch, r)
	}
	for _, c := range []store.Collection{remote, local} {
		if err := c.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(storeRec("http://solo.com/", 99)); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(batch[3].URL); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete("http://never.com/"); err != nil {
			t.Fatal(err)
		}
	}

	if remote.Len() != local.Len() {
		t.Fatalf("Len %d vs %d", remote.Len(), local.Len())
	}
	if !reflect.DeepEqual(remote.URLs(), local.URLs()) {
		t.Fatalf("URLs diverge:\n%v\n%v", remote.URLs(), local.URLs())
	}
	for _, u := range local.URLs() {
		lr, lok, lerr := local.Get(u)
		rr, rok, rerr := remote.Get(u)
		if lerr != nil || rerr != nil || lok != rok {
			t.Fatalf("get %s: ok %v/%v err %v/%v", u, lok, rok, lerr, rerr)
		}
		if !reflect.DeepEqual(lr, rr) {
			t.Fatalf("get %s:\n local %+v\nremote %+v", u, lr, rr)
		}
	}
	if _, ok, err := remote.Get("http://missing.com/"); ok || err != nil {
		t.Fatalf("missing get: ok=%v err=%v", ok, err)
	}

	var localScan, remoteScan []store.PageRecord
	if err := local.Scan(func(r store.PageRecord) bool { localScan = append(localScan, r); return true }); err != nil {
		t.Fatal(err)
	}
	if err := remote.Scan(func(r store.PageRecord) bool { remoteScan = append(remoteScan, r); return true }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localScan, remoteScan) {
		t.Fatalf("scan diverges: %d vs %d records", len(remoteScan), len(localScan))
	}
	// Early stop.
	n := 0
	if err := remote.Scan(func(store.PageRecord) bool { n++; return n < 2 }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("early-stop scan visited %d", n)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteStoreScanChunks forces multi-chunk scans (more records than
// storeScanChunk) and checks order and completeness.
func TestRemoteStoreScanChunks(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	c := rs.Collection("big")
	n := storeScanChunk*2 + 17
	batch := make([]store.PageRecord, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, store.PageRecord{URL: fmt.Sprintf("http://big.com/p%06d", i), Checksum: uint64(i)})
	}
	if err := c.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	seen := 0
	prev := ""
	if err := c.Scan(func(r store.PageRecord) bool {
		if r.URL <= prev {
			t.Fatalf("scan out of order: %s after %s", r.URL, prev)
		}
		prev = r.URL
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("chunked scan saw %d records, want %d", seen, n)
	}
}

// TestRemoteStoreDiskPersists round-trips through a disk-backed store
// server: a second server over the same directory must serve what the
// first one stored, and a dropped ephemeral collection must be gone.
func TestRemoteStoreDiskPersists(t *testing.T) {
	dir := t.TempDir()
	srv := NewDiskStoreServer(dir)
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Collection("pages").Put(storeRec("http://keep.com/", 1)); err != nil {
		t.Fatal(err)
	}
	eph := rs.EphemeralCollection("gen-1")
	if err := eph.Put(storeRec("http://gone.com/", 2)); err != nil {
		t.Fatal(err)
	}
	if err := eph.Close(); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "gen-1")); err != nil {
		t.Fatal(err)
	}

	srv2 := NewDiskStoreServer(dir)
	t.Cleanup(func() { srv2.Close() })
	rs2, err := LoopbackStore(srv2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs2.Close() })
	got, ok, err := rs2.Collection("pages").Get("http://keep.com/")
	if err != nil || !ok || got.Checksum != 1 {
		t.Fatalf("persistent collection lost across restart: %+v ok=%v err=%v", got, ok, err)
	}
	if n := rs2.Collection("gen-1").Len(); n != 0 {
		t.Fatalf("dropped ephemeral collection resurrected with %d records", n)
	}
}

// TestRemoteStoreFlakyTransport runs the op mix over connections that
// die every few reads: redial + request-ID dedup must keep the remote
// contents identical to a local collection, with no sticky error.
func TestRemoteStoreFlakyTransport(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	dial := func() (net.Conn, error) {
		conn, err := srv.Pipe()
		if err != nil {
			return nil, err
		}
		return &flakyConn{Conn: conn, limit: 7}, nil
	}
	rs, err := DialStore(dial, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	remote := rs.Collection("pages")
	local := store.NewMem()
	defer local.Close()
	for i := 0; i < 30; i++ {
		r := storeRec(fmt.Sprintf("http://f.com/p%02d", i%10), uint64(i))
		for _, c := range []store.Collection{remote, local} {
			if err := c.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 0 {
			u := fmt.Sprintf("http://f.com/p%02d", (i+5)%10)
			for _, c := range []store.Collection{remote, local} {
				if err := c.Delete(u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !reflect.DeepEqual(remote.URLs(), local.URLs()) {
		t.Fatalf("URLs diverge over flaky transport:\n%v\n%v", remote.URLs(), local.URLs())
	}
	for _, u := range local.URLs() {
		lr, _, _ := local.Get(u)
		rr, ok, err := remote.Get(u)
		if err != nil || !ok || !reflect.DeepEqual(lr, rr) {
			t.Fatalf("get %s over flaky transport: %+v vs %+v (ok=%v err=%v)", u, rr, lr, ok, err)
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("flaky transport became sticky: %v", err)
	}
}

// TestStoreResetSweepsStaleCollections: Reset must also remove
// collections a *previous* server process left on disk — a restarted
// storerd has an empty open-collection map, but crawlsim's
// per-contender Reset still has to deliver an empty store, or a
// contender silently starts from a previous run's pages.
func TestStoreResetSweepsStaleCollections(t *testing.T) {
	dir := t.TempDir()
	srv := NewDiskStoreServer(dir)
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Collection("gen-1").Put(storeRec("http://stale.com/", 1)); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh server process over the same directory: gen-1 exists on
	// disk but is not open.
	srv2 := NewDiskStoreServer(dir)
	t.Cleanup(func() { srv2.Close() })
	rs2, err := LoopbackStore(srv2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs2.Close() })
	if err := rs2.Reset(); err != nil {
		t.Fatal(err)
	}
	// Stat before Len: reading the collection would lazily recreate an
	// empty directory.
	if _, err := os.Stat(filepath.Join(dir, "gen-1")); !os.IsNotExist(err) {
		t.Fatalf("stale collection directory survived Reset (stat err: %v)", err)
	}
	if n := rs2.Collection("gen-1").Len(); n != 0 {
		t.Fatalf("stale on-disk collection survived Reset with %d records", n)
	}
}

// TestStoreHelloRejectsWrongDaemon: a store client pointed at a shardd
// (and a shard client pointed at a storerd) must fail at connect, not
// corrupt a crawl later.
func TestStoreHelloRejectsWrongDaemon(t *testing.T) {
	shardSrv := NewShardServer(frontier.NewSharded(4))
	t.Cleanup(func() { shardSrv.Close() })
	if _, err := DialStore(shardSrv.Pipe, Options{}); err == nil {
		t.Fatal("store client accepted a shard server")
	}
	storeSrv := NewMemStoreServer()
	t.Cleanup(func() { storeSrv.Close() })
	if _, err := Dial([]Dialer{storeSrv.Pipe}, Options{}); err == nil {
		t.Fatal("shard client accepted a store server")
	}
}

// TestStoreReconnectRestartSemantics: a reconnect landing on a
// *restarted* store server must be refused when the server is
// memory-backed (its collections are gone; resuming would silently
// corrupt the crawl) and accepted when it is disk-backed (acknowledged
// writes survived).
func TestStoreReconnectRestartSemantics(t *testing.T) {
	t.Run("mem-restart-refused", func(t *testing.T) {
		srv1 := NewMemStoreServer()
		srv2 := NewMemStoreServer()
		t.Cleanup(func() { srv1.Close(); srv2.Close() })
		var target atomic.Pointer[StoreServer]
		target.Store(srv1)
		rs, err := DialStore(func() (net.Conn, error) { return target.Load().Pipe() }, fastRetry)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		c := rs.Collection("pages")
		if err := c.Put(storeRec("http://a.com/", 1)); err != nil {
			t.Fatal(err)
		}
		// "Restart": the original process dies, a fresh one (new boot ID,
		// empty collections) answers on the same address.
		target.Store(srv2)
		srv1.Close()
		if err := c.Put(storeRec("http://a.com/", 2)); err == nil {
			t.Fatal("write accepted against a restarted memory-backed store server")
		}
		if rs.Err() == nil {
			t.Fatal("restart not surfaced via Err")
		}
	})
	t.Run("disk-restart-accepted", func(t *testing.T) {
		dir := t.TempDir()
		srv1 := NewDiskStoreServer(dir)
		var target atomic.Pointer[StoreServer]
		target.Store(srv1)
		rs, err := DialStore(func() (net.Conn, error) { return target.Load().Pipe() }, fastRetry)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		c := rs.Collection("pages")
		if err := c.Put(storeRec("http://a.com/", 1)); err != nil {
			t.Fatal(err)
		}
		if err := srv1.Close(); err != nil {
			t.Fatal(err)
		}
		srv2 := NewDiskStoreServer(dir)
		t.Cleanup(func() { srv2.Close() })
		target.Store(srv2)
		if err := c.Put(storeRec("http://b.com/", 2)); err != nil {
			t.Fatalf("write refused across a durable restart: %v", err)
		}
		if got, ok, err := c.Get("http://a.com/"); err != nil || !ok || got.Checksum != 1 {
			t.Fatalf("pre-restart record lost: %+v ok=%v err=%v", got, ok, err)
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStoreServerRejectsBadNames: names that could escape the backing
// directory are refused.
func TestStoreServerRejectsBadNames(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	for _, name := range []string{"", "..", ".hidden", "a/b", "a\\b", "x y"} {
		if err := rs.Collection(name).Put(storeRec("http://a.com/", 1)); err == nil {
			t.Fatalf("collection name %q accepted", name)
		}
	}
}

// truncatingServer answers a shard or store hello with the given
// reply, then every request with statusOK and body — a reply cut short,
// as a broken or hostile server might send.
func truncatingServer(hello, body []byte) Dialer {
	return func() (net.Conn, error) {
		cli, srv := net.Pipe()
		go func() {
			defer srv.Close()
			for {
				op, _, _, err := readFrame(srv)
				if err != nil {
					return
				}
				resp := body
				if op == opShardHello || op == opStoreHello {
					resp = hello
				}
				if _, err := writeFrame(srv, statusOK, resp); err != nil {
					return
				}
			}
		}()
		return cli, nil
	}
}

// TestTruncatedStoreRepliesSurface: a reply the client cannot decode is
// an error, recorded for Err — including from Len, whose signature
// cannot return one, and from a Get that would otherwise read as a
// miss — and, like a transport failure, it names the server and the op.
func TestTruncatedStoreRepliesSurface(t *testing.T) {
	var hello enc
	hello.u32(storeHelloMagic).bool(true).fix64(1)
	for name, tc := range map[string]struct {
		body []byte
		op   byte
		call func(c store.Collection) error
	}{
		"len, empty reply": {nil, opStoreLen, func(c store.Collection) error { c.Len(); return nil }},
		"get, empty reply": {nil, opStoreGetValue, func(c store.Collection) error { _, _, err := c.Get("http://a.com/"); return err }},
		"get, pair missing": {[]byte{1}, opStoreGetValue, func(c store.Collection) error {
			_, _, err := c.Get("http://a.com/")
			return err
		}},
		"scan, pair missing": {[]byte{1}, opStoreScanValues, func(c store.Collection) error {
			return c.Scan(func(store.PageRecord) bool { return true })
		}},
		"urls, done missing": {[]byte{0}, opStoreURLs, func(c store.Collection) error { c.URLs(); return nil }},
	} {
		rs, err := DialStore(truncatingServer(hello.b, tc.body), Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = tc.call(rs.Collection("pages"))
		if serr := rs.Err(); serr == nil {
			t.Errorf("%s: Err() is nil after a truncated reply (call returned %v)", name, err)
		} else if server := rs.members[0].name; !strings.Contains(serr.Error(), server) || !strings.Contains(serr.Error(), opName(tc.op)) {
			t.Errorf("%s: sticky error %q does not name the server %q and the op %s", name, serr, server, opName(tc.op))
		}
		rs.Close()
	}
}

// TestTruncatedShardRepliesSurface is the frontier client's half: the
// ShardSet methods return no error, so a reply they cannot decode must
// be recorded for Err, naming the server and the op, rather than read
// as an empty queue, a drained frontier or a short list.
func TestTruncatedShardRepliesSurface(t *testing.T) {
	var hello enc
	hello.u32(8) // the server's shard count
	for name, tc := range map[string]struct {
		body []byte
		op   byte
		call func(rs *RemoteShards)
	}{
		"len, empty reply":            {nil, opLen, func(rs *RemoteShards) { rs.Len() }},
		"urls, list cut short":        {[]byte{2}, opURLs, func(rs *RemoteShards) { rs.URLs() }},
		"round, empty reply":          {nil, opRound, func(rs *RemoteShards) { rs.ApplyRound(nil, nil, nil, 1) }},
		"round, candidates cut short": {[]byte{2, 0}, opRound, func(rs *RemoteShards) { rs.ApplyRound(nil, []string{"http://a.com/"}, nil, 1) }},
		"round, completeness missing": {[]byte{0}, opRound, func(rs *RemoteShards) { rs.ApplyRound(nil, nil, nil, 1) }},
	} {
		rs, err := Dial([]Dialer{truncatingServer(hello.b, tc.body)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc.call(rs)
		if serr := rs.Err(); serr == nil {
			t.Errorf("%s: Err() is nil after a truncated reply", name)
		} else if server := rs.t().servers[0].name; !strings.Contains(serr.Error(), server) || !strings.Contains(serr.Error(), opName(tc.op)) {
			t.Errorf("%s: sticky error %q does not name the server %q and the op %s", name, serr, server, opName(tc.op))
		}
		rs.Close()
	}
}

// TestRetiredStoreOpsAnsweredByName: the numbers of the store ops that
// carried records in the wire's own codec are never reused, so a peer
// of an older build sending one learns which op was refused.
func TestRetiredStoreOpsAnsweredByName(t *testing.T) {
	srv := NewMemStoreServer()
	defer srv.Close()
	for op, name := range map[byte]string{
		retiredStorePutBatch: "retired_store_put_batch",
		retiredStoreGet:      "retired_store_get",
		retiredStoreScan:     "retired_store_scan",
	} {
		status, resp := srv.handle(op, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0})
		if status != statusError || !strings.Contains(string(resp), "unknown opcode") || !strings.Contains(string(resp), name) {
			t.Errorf("op %#x answered (%d, %q), want an unknown-opcode error naming %s", op, status, resp, name)
		}
	}
}

// TestStorePutRefusesBadValueWhole: a put carrying one value that does
// not decode is refused before any of its records is applied, on both
// backends.
func TestStorePutRefusesBadValueWhole(t *testing.T) {
	good := storeRec("http://a.com/1", 1)
	val := store.AppendValue(nil, &good)
	var e enc
	e.fix64(77).str("c").u32(2)
	appendPair(&e, "", good.URL, val)
	appendPair(&e, good.URL, "http://a.com/2", val[:len(val)-3])
	for name, srv := range map[string]*StoreServer{"mem": NewMemStoreServer(), "disk": NewDiskStoreServer(t.TempDir())} {
		if status, resp := srv.handle(opStorePutValues, e.b); status != statusError {
			t.Errorf("%s: a put with a truncated value answered (%d, %q)", name, status, resp)
		}
		c, err := srv.Collection("c")
		if err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n != 0 {
			t.Errorf("%s: refused put applied %d records", name, n)
		}
		srv.Close()
	}
}

// TestRemoteDiskSegmentsMatchLocal: the store's value encoding is the
// only record encoding, so records written through RemoteStore to a
// disk store server leave segment files byte-identical to those of a
// local store.Disk given the same PutBatch and Delete calls.
func TestRemoteDiskSegmentsMatchLocal(t *testing.T) {
	srvDir, localDir := t.TempDir(), t.TempDir()
	srv := NewDiskStoreServer(srvDir)
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := store.OpenDisk(localDir)
	if err != nil {
		t.Fatal(err)
	}
	colls := []store.Collection{rs.Collection("c"), local}
	rng := rand.New(rand.NewSource(5))
	urls := testURLs(6, 30)
	for step := 0; step < 60; step++ {
		batch := make([]store.PageRecord, 1+rng.Intn(20))
		for i := range batch {
			r := storeRec(urls[rng.Intn(len(urls))], rng.Uint64())
			r.FetchedAt, r.Version, r.Importance = rng.Float64()*40, rng.Intn(5), rng.Float64()
			r.Links = append([]string{r.URL + "/next"}, urls[rng.Intn(len(urls))], urls[rng.Intn(len(urls))])
			r.Content = make([]byte, rng.Intn(3000))
			rng.Read(r.Content)
			batch[i] = r
		}
		drop := urls[rng.Intn(len(urls))]
		for _, c := range colls {
			if err := c.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			if step%5 == 0 {
				if err := c.Delete(drop); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}
	sameSegments(t, localDir, filepath.Join(srvDir, "c"))
}

// sameSegments fails the test unless directories want and got hold the
// same segment files, byte for byte, and at least one.
func sameSegments(t *testing.T, want, got string) {
	t.Helper()
	wantEnts, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	gotEnts, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEnts) != len(wantEnts) || len(wantEnts) == 0 {
		t.Fatalf("%s holds %d segment files, %s %d", got, len(gotEnts), want, len(wantEnts))
	}
	for i, ent := range wantEnts {
		a, errA := os.ReadFile(filepath.Join(want, ent.Name()))
		b, errB := os.ReadFile(filepath.Join(got, gotEnts[i].Name()))
		if errA != nil || errB != nil || gotEnts[i].Name() != ent.Name() || !bytes.Equal(a, b) {
			t.Fatalf("segment %s: %d bytes, the other side's %s %d bytes: not identical (%v, %v)",
				ent.Name(), len(a), gotEnts[i].Name(), len(b), errA, errB)
		}
	}
}

// TestStoreRefusesParentCompressedPut hands two disk store servers the
// same put-batches, raw, as this build sends them; the second first
// gets each put of parentCompressMin or more as an earlier build sent
// it, deflated, on a connection of its own. A deflated put must be
// answered once with errProtoVersion naming the flag, the connection
// hung up, and nothing written; resent raw it is applied, so the two
// servers' segment files end byte-identical.
func TestStoreRefusesParentCompressedPut(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	urls := testURLs(6, 30)
	words := []string{"<p>", "crawl ", "fresh ", "page ", "</a>", "\n"}
	var bodies [][]byte
	for step := 0; step < 20; step++ {
		var put enc
		n := 1 + rng.Intn(20)
		put.fix64(uint64(100 + step)).str("c").u32(uint32(n))
		for i, prev := 0, ""; i < n; i++ {
			r := storeRec(urls[rng.Intn(len(urls))], rng.Uint64())
			r.FetchedAt, r.Version = rng.Float64()*40, rng.Intn(5)
			for len(r.Content) < 2000 {
				r.Content = append(r.Content, words[rng.Intn(len(words))]...)
			}
			appendPair(&put, prev, r.URL, store.AppendValue(nil, &r))
			prev = r.URL
		}
		bodies = append(bodies, put.b)
	}

	dirs := []string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		srv := NewDiskStoreServer(dir)
		conn, err := srv.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		deflated := 0
		for _, body := range bodies {
			if i == 1 && len(body) >= parentCompressMin {
				deflated++
				before := dirBytes(t, filepath.Join(dir, "c"))
				old, err := srv.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				old.SetDeadline(time.Now().Add(5 * time.Second))
				old.Write(parentFrame(opStorePutValues, body))
				if st, resp, _, err := readFrame(old); err != nil || st != statusError ||
					!namesVersions(string(resp), ProtoVersion) || !namesCompressed(string(resp)) {
					t.Fatalf("deflated put answered (%d, %q, %v), want a statusError naming the version and the flag", st, resp, err)
				}
				if _, _, _, err := readFrame(old); err != io.EOF {
					t.Fatalf("connection left open after the refusal: %v", err)
				}
				old.Close()
				if !reflect.DeepEqual(dirBytes(t, filepath.Join(dir, "c")), before) {
					t.Fatal("a refused deflated put changed the collection")
				}
			}
			if _, err := conn.Write(validFrame(t, opStorePutValues, body)); err != nil {
				t.Fatal(err)
			}
			if st, resp, _, err := readFrame(conn); err != nil || st != statusOK {
				t.Fatalf("put: status %d %q: %v", st, resp, err)
			}
		}
		if i == 1 && deflated < len(bodies)/2 {
			t.Fatalf("only %d of %d puts were large enough to go deflated", deflated, len(bodies))
		}
		conn.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	sameSegments(t, filepath.Join(dirs[0], "c"), filepath.Join(dirs[1], "c"))
}

// cloneRecord deep-copies a record.
func cloneRecord(r store.PageRecord) store.PageRecord {
	r.Links = append([]string(nil), r.Links...)
	r.Content = append([]byte(nil), r.Content...)
	return r
}

// TestRemoteRecordsOwnTheirBytes: a record the client's Get or ScanFrom
// returns aliases the reply it was decoded from, so that reply must be
// the record's alone — later calls on the same connection may not
// change it, whichever backend answered.
func TestRemoteRecordsOwnTheirBytes(t *testing.T) {
	for name, srv := range map[string]*StoreServer{"mem": NewMemStoreServer(), "disk": NewDiskStoreServer(t.TempDir())} {
		rs, err := LoopbackStore(srv, Options{t: transport{conns: 1}})
		if err != nil {
			t.Fatal(err)
		}
		c := rs.Collection("c")
		batch := func(fill byte) []store.PageRecord {
			var recs []store.PageRecord
			for i, u := range testURLs(3, 12) {
				r := storeRec(u, uint64(i)+uint64(fill)<<32)
				r.Links = []string{u + "/a", u + "/b"}
				r.Content = bytes.Repeat([]byte{fill}, 100+97*i)
				recs = append(recs, r)
			}
			return recs
		}
		if err := c.PutBatch(batch('a')); err != nil {
			t.Fatal(err)
		}
		got, ok, err := c.Get(testURLs(3, 12)[5])
		if err != nil || !ok {
			t.Fatalf("%s: get: ok=%v err=%v", name, ok, err)
		}
		var scanned []store.PageRecord
		if err := c.ScanFrom("", func(r store.PageRecord) bool { scanned = append(scanned, r); return true }); err != nil {
			t.Fatal(err)
		}
		wantGot := cloneRecord(got)
		var wantScanned []store.PageRecord
		for _, r := range scanned {
			wantScanned = append(wantScanned, cloneRecord(r))
		}

		if err := c.PutBatch(batch('z')); err != nil {
			t.Fatal(err)
		}
		for _, u := range testURLs(3, 12) {
			if _, _, err := c.Get(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Scan(func(store.PageRecord) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantGot) {
			t.Fatalf("%s: a record from Get changed under later calls", name)
		}
		if !reflect.DeepEqual(scanned, wantScanned) {
			t.Fatalf("%s: records from ScanFrom changed under later calls", name)
		}
		rs.Close()
		srv.Close()
	}
}

// TestStoreServerCollectionsSorted: the server lists the collections
// its clients opened, sorted by name, and none after a Reset.
func TestStoreServerCollectionsSorted(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	if got := srv.Collections(); len(got) != 0 {
		t.Fatalf("fresh server lists %v", got)
	}
	for _, name := range []string{"gen-2", "alpha", "gen-1"} {
		if err := rs.Collection(name).Put(storeRec("http://a.com/"+name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := srv.Collections(), []string{"alpha", "gen-1", "gen-2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Collections = %v, want %v", got, want)
	}
	if err := rs.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Collections(); len(got) != 0 {
		t.Fatalf("after Reset the server lists %v", got)
	}
}

// TestRemoteStoreCountsTripsAndBytes: a put and a get send a request
// frame each (a pooled connection's first use adds its hello), and the
// wire counters carry the page's bytes both ways.
func TestRemoteStoreCountsTripsAndBytes(t *testing.T) {
	srv := NewMemStoreServer()
	t.Cleanup(func() { srv.Close() })
	rs, err := LoopbackStore(srv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	c := rs.Collection("pages")
	trips0 := rs.RoundTrips()
	in0, out0 := rs.WireBytes()
	content := bytes.Repeat([]byte("x"), 4096)
	rec := storeRec("http://a.com/big", 7)
	rec.Content = content
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(rec.URL); !ok || err != nil {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if got := rs.RoundTrips() - trips0; got < 2 {
		t.Fatalf("a put and a get made %d round trips, want at least 2", got)
	}
	in1, out1 := rs.WireBytes()
	if got := out1 - out0; got < int64(len(content)) {
		t.Fatalf("%d bytes out for a %d-byte page", got, len(content))
	}
	if got := in1 - in0; got < int64(len(content)) {
		t.Fatalf("%d bytes in for a get of a %d-byte page", got, len(content))
	}
}
