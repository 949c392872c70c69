package cluster

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
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
	if _, _, _, ok := rs.ApplyRound(
		[]string{"http://site001.com/a"}, []string{"http://site001.com/b"},
		[]frontier.Entry{{URL: "http://site001.com/a", Due: 8.25, Priority: 2}, {URL: "http://site001.com/c", Due: 9}},
		4); !ok || rs.Err() != nil {
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

// TestOpensParentWrittenWAL: testdata/wal_parent_graceful was written
// by the last build that spoke versions 2–6 (commit 8be3285), through
// the public client API and a graceful CloseWAL — the upgrade path
// README prescribes. This build must restore from it what that build
// recorded beside it: queue length, politeness gap and, with the
// per-shard deadlines in play, the exact pop order.
func TestOpensParentWrittenWAL(t *testing.T) {
	src := filepath.Join("testdata", "wal_parent_graceful")
	dir := t.TempDir() // OpenWAL compacts what it opens; the fixture stays pristine
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(src + ".want")
	if err != nil {
		t.Fatal(err)
	}
	q := newWALServer(t, dir, 4).Shards()
	var got strings.Builder
	fmt.Fprintf(&got, "len %d\npoliteness %v\n", q.Len(), q.Politeness())
	for now := 0.0; ; {
		if ent, ok := q.PopDue(now); ok {
			fmt.Fprintf(&got, "pop %v %s %v %v\n", now, ent.URL, ent.Due, ent.Priority)
		} else if now, ok = q.NextEvent(); !ok {
			break
		}
	}
	if got.String() != string(want) {
		t.Fatalf("state restored from the parent build's WAL differs\ngot:\n%swant:\n%s", got.String(), want)
	}
}
