package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webevolve/internal/frontier"
)

// checkGolden compares data's hex dump with testdata/<name>.golden.
// With one protocol version there is no second decoder to notice that
// the first one drifted, so the bytes themselves are pinned: a change
// to a golden file is a wire or log format change and needs a new
// ProtoVersion, not a regenerated file.
func checkGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if got := hex.Dump(data); err != nil || got != string(want) {
		t.Errorf("%s drifted from testdata/%s.golden (%v)\ngot:\n%swant:\n%s", name, name, err, got, want)
	}
}

// tapConn transcribes a client connection: each request's bytes, then
// its response's.
type tapConn struct {
	net.Conn
	log *bytes.Buffer
}

func (c tapConn) Write(p []byte) (int, error) {
	c.log.Write(p)
	return c.Conn.Write(p)
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log.Write(p[:n])
	return n, err
}

func TestGoldenWire(t *testing.T) {
	var log bytes.Buffer
	tapDialer := func(pipe Dialer) Dialer {
		return func() (net.Conn, error) {
			conn, err := pipe()
			return tapConn{conn, &log}, err
		}
	}
	shard := NewShardServer(frontier.NewSharded(4))
	defer shard.Close()
	rs, err := Dial([]Dialer{tapDialer(shard.Pipe)}, Options{t: transport{conns: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	checkGolden(t, "shard_hello", log.Bytes())

	log.Reset()
	rs.reqBase = 0x0102030405060708
	rs.reqSeq.Store(0)
	// The client asks each server for exchangeRounds rounds of
	// candidates: a peekMax of 4/exchangeRounds sends the 4 pinned here.
	if _, _, _, ok := rs.ApplyRound(
		[]string{"http://site001.com/a"}, []string{"http://site001.com/b"},
		[]frontier.Entry{{URL: "http://site001.com/a", Due: 8.25, Priority: 2}, {URL: "http://site001.com/c", Due: 9}},
		4/exchangeRounds); !ok || rs.Err() != nil {
		t.Fatalf("round refused: ok=%v err=%v", ok, rs.Err())
	}
	checkGolden(t, "round", log.Bytes())

	log.Reset()
	st := NewMemStoreServer()
	st.boot = 0x1122334455667788
	defer st.Close()
	store, err := DialStore(tapDialer(st.Pipe), Options{t: transport{conns: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	checkGolden(t, "store_hello", log.Bytes())
}

// TestRefusesParentSnapshotWithGap: testdata/wal_parent_graceful was
// written by the last build that spoke versions 2–6 (commit 8be3285),
// through the public client API and a graceful CloseWAL, with a
// 0.25-day politeness gap in its snapshot. A server holding a gap
// refused every round, and this build keeps no gap to restore: OpenWAL
// must refuse the snapshot naming the gap and leave the directory
// byte-identical.
func TestRefusesParentSnapshotWithGap(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "wal_parent_graceful"))); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	err := NewShardServer(frontier.NewSharded(4)).OpenWAL(dir)
	want := fmt.Sprintf("cluster: wal: snapshot %s holds a politeness gap (0.25)", filepath.Join(dir, walSnapName))
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("OpenWAL = %v, want the gap refused by name (%q)", err, want)
	}
	if !reflect.DeepEqual(dirBytes(t, dir), before) {
		t.Fatal("the refused open changed the directory")
	}
}

// parentSnapshot is a snapshot as builds before opShardHello wrote it:
// after the sequence number, the header carries the politeness gap and
// every shard's deadline and claim (here four shards, each claimed and
// not ready before day 5).
func parentSnapshot(t *testing.T, seq uint64, gap float64, entries []frontier.Entry) []byte {
	var hdr, ents enc
	hdr.u64(seq).f64(gap).u32(4)
	for i := 0; i < 4; i++ {
		hdr.f64(5).bool(true)
	}
	encodeEntries(&ents, entries)
	snap := append(validFrame(t, walSnapHeader, hdr.b), validFrame(t, walSnapEntries, ents.b)...)
	return append(snap, validFrame(t, walSnapEnd, nil)...)
}

// TestOpensParentSnapshotWithoutGap: a snapshot of a build before
// opShardHello whose gap is zero opens with every entry. Its shards'
// deadlines and claims are dropped — no round reads a deadline, and
// that build's next session cleared the claims anyway — so the
// compaction that follows the open writes a header of the sequence
// number alone.
func TestOpensParentSnapshotWithoutGap(t *testing.T) {
	dir := t.TempDir()
	entries := []frontier.Entry{
		{URL: "http://site001.com/a", Due: 1, Priority: 2},
		{URL: "http://site002.com/b", Due: 1.5},
		{URL: "http://site003.com/c", Due: 2, Priority: 1},
	}
	if err := os.WriteFile(filepath.Join(dir, walSnapName), parentSnapshot(t, 3, 0, entries), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := newWALServer(t, dir, 4)
	got := roundVia(t, srv, 1, nil, nil, 10)
	if len(got) != len(entries) {
		t.Fatalf("restored candidates %+v, want %+v", got, entries)
	}
	for i := range got {
		if !sameEntry(got[i], entries[i]) {
			t.Fatalf("restored candidates %+v, want %+v", got, entries)
		}
	}
	if next, ok := srv.Shards().NextEvent(); !ok || next != 1 {
		t.Fatalf("NextEvent = %v, %v: the parent's shard deadlines were restored", next, ok)
	}
	f, err := os.Open(filepath.Join(dir, walSnapName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want enc
	want.u64(4) // the compaction's sequence number, one past the parent's
	if kind, body, _, err := readFrame(f); err != nil || kind != walSnapHeader || !bytes.Equal(body, want.b) {
		t.Fatalf("rewritten header (%d, %x, %v), want (%d, %x)", kind, body, err, walSnapHeader, want.b)
	}
}

// TestRefusesParentCompressedWAL: testdata/wal_parent_compressed was
// written by the last build that deflated frames (commit e17a244),
// through the request path: a 384-entry push batch, a compaction that
// put those entries in the snapshot as one chunk, then a second
// 384-entry batch left in the log by a crash (no CloseWAL). Both
// batches and the chunk were past 4 KiB, so that build wrote all three
// compressed. This build reads no compressed frame, and the snapshot is
// read first: OpenWAL must refuse the directory naming the snapshot and
// the flag, and leave it byte for byte as it was.
// (wal_parent_compressed_snap.want holds the queue that build restored
// from the snapshot; no build of this version can restore it.)
func TestRefusesParentCompressedWAL(t *testing.T) {
	src := filepath.Join("testdata", "wal_parent_compressed")
	if snap, log := compressedFrames(t, filepath.Join(src, walSnapName)), compressedFrames(t, walFilePath(src, 2)); snap != 1 || log != 1 {
		t.Fatalf("fixture holds %d compressed snapshot frames and %d compressed log frames, want 1 and 1", snap, log)
	}
	dir := t.TempDir() // the fixture stays pristine whatever OpenWAL does
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	err := NewShardServer(frontier.NewSharded(4)).OpenWAL(dir)
	if !errors.Is(err, errProtoVersion) || !namesCompressed(err.Error()) || !strings.Contains(err.Error(), "snapshot "+filepath.Join(dir, walSnapName)) {
		t.Fatalf("OpenWAL = %v, want errProtoVersion naming the snapshot and the flag", err)
	}
	if !reflect.DeepEqual(dirBytes(t, dir), before) {
		t.Fatal("the refused open changed the directory")
	}
}
