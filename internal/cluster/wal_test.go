package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webevolve/internal/frontier"
)

// newWALServer opens a shard server persisting to dir.
func newWALServer(t *testing.T, dir string, shards int) *ShardServer {
	t.Helper()
	srv := NewShardServer(frontier.NewSharded(shards))
	if err := srv.OpenWAL(dir); err != nil {
		t.Fatal(err)
	}
	return srv
}

// pushVia pushes through the wire path (so ops are logged), not the
// frontier directly.
func pushVia(t *testing.T, srv *ShardServer, reqID uint64, url string, due, prio float64) {
	t.Helper()
	var e enc
	e.fix64(reqID).str(url).f64(due).f64(prio)
	if st, resp := srv.handle(opPush, e.b); st != statusOK {
		t.Fatalf("push: %s", resp)
	}
}

func popVia(t *testing.T, srv *ShardServer, reqID uint64, now float64) (frontier.Entry, bool) {
	t.Helper()
	var e enc
	e.fix64(reqID).f64(now)
	st, resp := srv.handle(opPopDue, e.b)
	if st != statusOK {
		t.Fatalf("pop: %s", resp)
	}
	d := &dec{b: resp}
	ent, ok := decodeEntry(d)
	return ent, ok
}

// TestWALRecoversAfterCrash: a server abandoned without CloseWAL (the
// crash case — appends are on disk, no final snapshot) must come back
// with the exact frontier: acknowledged pushes present, acknowledged
// pops absent.
func TestWALRecoversAfterCrash(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	urls := testURLs(6, 3)
	for i, u := range urls {
		pushVia(t, srv, uint64(1000+i), u, float64(i%5), float64(i%2))
	}
	var popped []string
	for i := 0; i < 5; i++ {
		e, ok := popVia(t, srv, uint64(2000+i), 10)
		if !ok {
			t.Fatal("pop drained early")
		}
		popped = append(popped, e.URL)
	}
	// Crash: no CloseWAL, no final snapshot.

	srv2 := newWALServer(t, dir, 4)
	if got, want := srv2.Shards().Len(), len(urls)-len(popped); got != want {
		t.Fatalf("recovered Len = %d, want %d", got, want)
	}
	for _, u := range popped {
		if srv2.Shards().Contains(u) {
			t.Fatalf("popped URL %s resurrected by replay", u)
		}
	}
	// The recovered queue keeps popping in the order the original would
	// have.
	mirror := frontier.NewSharded(4)
	for i, u := range urls {
		mirror.Push(u, float64(i%5), float64(i%2))
	}
	for range popped {
		mirror.PopDue(10)
	}
	req := uint64(3000)
	for {
		me, mok := mirror.PopDue(10)
		req++
		se, sok := popVia(t, srv2, req, 10)
		if mok != sok {
			t.Fatalf("recovered pop ok %v vs %v", sok, mok)
		}
		if !mok {
			break
		}
		if !sameEntry(me, se) {
			t.Fatalf("recovered pop %+v vs %+v", se, me)
		}
	}
}

// TestWALGracefulFlush: CloseWAL must persist every queued entry into
// the snapshot (the graceful-shutdown contract), leaving an empty log —
// and the snapshot's bytes are the pinned ones (see checkGolden).
func TestWALGracefulFlush(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 2)
	srv.handle(opHello, helloBody(0.5, true))
	pushVia(t, srv, 1, "http://site001.com/a", 1, 2)
	pushVia(t, srv, 2, "http://site001.com/b", 0.25, 0)
	pushVia(t, srv, 3, "http://site002.com/index.html", 3, 1)
	popVia(t, srv, 4, 1)
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, walSnapName))
	if err != nil {
		t.Fatalf("no snapshot after graceful shutdown: %v", err)
	}
	checkGolden(t, "wal_snapshot", snap)
	if got := newWALServer(t, dir, 2).Shards().Len(); got != 2 {
		t.Fatalf("flushed 2 entries, recovered %d", got)
	}
}

// TestWALTornTailTruncated: garbage appended to the log (a torn write
// from a crash mid-append) must be swept away — the valid prefix
// replays, the op that tore was never acknowledged.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 1, 0)
	pushVia(t, srv, 2, "http://site002.com/b", 2, 0)

	seqs, err := walFileSeqs(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	active := walFilePath(dir, seqs[len(seqs)-1])
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != 2 {
		t.Fatalf("recovered Len = %d, want 2", got)
	}
	if !srv2.Shards().Contains("http://site001.com/a") || !srv2.Shards().Contains("http://site002.com/b") {
		t.Fatal("acknowledged pushes lost to torn tail")
	}
}

// walBatchBody builds a push-batch body; over testURLs(16, 24) it is
// past parentCompressMin (front-coded URLs), a body earlier builds
// wrote deflated.
func walBatchBody(reqID uint64, urls []string) []byte {
	var e enc
	e.fix64(reqID)
	ents := make([]frontier.Entry, len(urls))
	for i, u := range urls {
		ents[i] = frontier.Entry{URL: u, Due: float64(i)}
	}
	encodeEntries(&e, ents)
	return e.b
}

// TestWALReplaysCompressedFrames: a log in which an earlier build
// wrote a batch compressed, between frames of this build, must replay
// exactly after a crash (no CloseWAL, no snapshot).
func TestWALReplaysCompressedFrames(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site100.com/a", 1, 0)
	seqs, err := walFileSeqs(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	active := walFilePath(dir, seqs[len(seqs)-1])
	urls := testURLs(16, 24)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(parentFrame(opPushBatch, walBatchBody(900, urls))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	pushVia(t, srv, 2, "http://site101.com/b", 2, 0)
	if n := compressedFrames(t, active); n != 1 {
		t.Fatalf("%d compressed frames in the log, want 1", n)
	}

	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != len(urls)+2 {
		t.Fatalf("recovered Len = %d, want %d", got, len(urls)+2)
	}
	for _, u := range append(urls, "http://site100.com/a", "http://site101.com/b") {
		if !srv2.Shards().Contains(u) {
			t.Fatalf("entry %s lost replaying a compressed WAL", u)
		}
	}
}

// TestWALTornCompressedTailTruncated: a compressed frame torn
// mid-write must sweep back to the last CRC-valid frame — acknowledged
// ops before the tear survive, and the file is truncated to the valid
// prefix so subsequent appends don't interleave with garbage.
func TestWALTornCompressedTailTruncated(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 1, 0)
	pushVia(t, srv, 2, "http://site002.com/b", 2, 0)

	seqs, err := walFileSeqs(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	active := walFilePath(dir, seqs[len(seqs)-1])

	// A well-formed compressed batch frame, torn 5 bytes short: the
	// length prefix promises more than the file holds.
	torn := parentFrame(opPushBatch, walBatchBody(901, testURLs(16, 24)))
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != 2 {
		t.Fatalf("recovered Len = %d, want 2", got)
	}
	if !srv2.Shards().Contains("http://site001.com/a") || !srv2.Shards().Contains("http://site002.com/b") {
		t.Fatal("acknowledged pushes lost to torn compressed tail")
	}
	// The swept log must stay appendable: a post-recovery push has to
	// survive another restart, proving the tear left no garbage behind.
	pushVia(t, srv2, 3, "http://site003.com/c", 3, 0)
	srv3 := newWALServer(t, dir, 4)
	if got := srv3.Shards().Len(); got != 3 {
		t.Fatalf("post-sweep append lost: Len = %d, want 3", got)
	}
}

// TestWALCompactionBoundsLog: compaction must fold the log into the
// snapshot, delete covered files, and lose nothing.
func TestWALCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	urls := testURLs(8, 4)
	for i, u := range urls {
		pushVia(t, srv, uint64(10+i), u, float64(i%6), 0)
	}
	if err := srv.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	seqs, err := walFileSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("%d wal files after compaction, want 1", len(seqs))
	}
	pushVia(t, srv, 999, "http://site999.com/late", 0, 0)
	// Crash-reopen: snapshot + post-compaction log must both replay.
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != len(urls)+1 {
		t.Fatalf("recovered Len = %d, want %d", got, len(urls)+1)
	}
}

// TestWALDedupSurvivesRestart: a retry whose original landed in the
// log must be deduped by the *restarted* server — the replay rebuilds
// the response cache, closing the crash window between apply and ack.
func TestWALDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 0, 0)
	pushVia(t, srv, 2, "http://site002.com/b", 0, 1)

	var claim enc
	claim.fix64(77).f64(10)
	st1, resp1 := srv.handle(opClaimDue, claim.b)
	if st1 != statusOK {
		t.Fatalf("claim: %s", resp1)
	}
	// Crash before the response reached the client; the client retries
	// the identical frame against the restarted server.
	srv2 := newWALServer(t, dir, 4)
	st2, resp2 := srv2.handle(opClaimDue, claim.b)
	if st2 != st1 || string(resp2) != string(resp1) {
		t.Fatalf("retry across restart not deduped: (%d,%q) vs (%d,%q)", st2, resp2, st1, resp1)
	}
	if got := srv2.Shards().Len(); got != 1 {
		t.Fatalf("retry across restart re-popped: Len = %d, want 1", got)
	}
}

// TestWALRestoreKeepsPoliteness: politeness set by a client hello is
// captured by compaction and restored on restart.
func TestWALRestoreKeepsPoliteness(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	srv.Shards().SetPoliteness(2.5)
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Politeness(); got != 2.5 {
		t.Fatalf("restored politeness %v, want 2.5", got)
	}
}

// TestWALShardCountChange: restoring a snapshot into a different shard
// layout keeps every entry (re-hashed) and drops only the per-shard
// scheduling state.
func TestWALShardCountChange(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	urls := testURLs(5, 2)
	for i, u := range urls {
		pushVia(t, srv, uint64(50+i), u, float64(i), 0)
	}
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	srv2 := newWALServer(t, dir, 8)
	if got := srv2.Shards().Len(); got != len(urls) {
		t.Fatalf("re-sharded recovery Len = %d, want %d", got, len(urls))
	}
}

// TestWALReplayKeepsHelloPoliteness: politeness applied by a client
// hello is a logged mutation — a crash-recovered server must pop with
// the same politeness deadlines the live server used.
func TestWALReplayKeepsHelloPoliteness(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	var hello enc
	hello.bool(true).f64(1.5).bool(true)
	if st, resp := srv.handle(opHello, hello.b); st != statusOK {
		t.Fatalf("hello: %s", resp)
	}
	pushVia(t, srv, 1, "http://site001.com/a", 0, 0)
	// Crash: no snapshot since the hello.
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Politeness(); got != 1.5 {
		t.Fatalf("replayed politeness %v, want 1.5", got)
	}
}

// TestWALSnapshotChunks: a frontier larger than one snapshot chunk
// round-trips through compaction intact (the snapshot has no single-
// frame size ceiling).
func TestWALSnapshotChunks(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	n := walSnapChunk + 123
	entries := make([]frontier.Entry, n)
	for i := range entries {
		entries[i] = frontier.Entry{
			URL: fmt.Sprintf("http://site%03d.com/p%06d", i%50, i),
			Due: float64(i % 11), Priority: float64(i % 3),
		}
	}
	srv.Shards().PushBatch(entries)
	if err := srv.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	srv2 := newWALServer(t, dir, 4)
	if got := srv2.Shards().Len(); got != n {
		t.Fatalf("recovered Len = %d, want %d", got, n)
	}
}

// TestWALSkipsNoOpPops: pops that return nothing must not grow the log
// — an idle worker pool polling an empty frontier would otherwise
// churn it without bound.
func TestWALSkipsNoOpPops(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	sizeOf := func() int64 {
		seqs, err := walFileSeqs(dir)
		if err != nil || len(seqs) == 0 {
			t.Fatalf("no wal files: %v", err)
		}
		fi, err := os.Stat(walFilePath(dir, seqs[len(seqs)-1]))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := sizeOf()
	for i := 0; i < 10; i++ {
		if _, ok := popVia(t, srv, uint64(100+i), 5); ok {
			t.Fatal("pop on empty frontier returned an entry")
		}
	}
	if after := sizeOf(); after != before {
		t.Fatalf("no-op pops grew the log: %d -> %d bytes", before, after)
	}
	pushVia(t, srv, 999, "http://site001.com/a", 0, 0)
	if after := sizeOf(); after == before {
		t.Fatal("real mutation did not grow the log")
	}
}

// dirBytes reads every file of dir, keyed by path.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	paths, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = string(b)
	}
	return out
}

// TestWALRefusesOtherVersions: an intact frame of another protocol
// version in the log or the snapshot is another build's acknowledged
// work, not a torn tail. OpenWAL must fail naming the file and both
// versions and leave every file byte-identical — truncating at the
// foreign frame (what replay did with any readFrame error) silently
// erases it and all that follows. The v5 records are the hello records
// the last multi-version build logged on every client connect.
func TestWALRefusesOtherVersions(t *testing.T) {
	var gap enc
	gap.f64(0.5)
	for name, frame := range map[string][]byte{
		"v5 set-politeness": rawFrame(append([]byte{5, walSetPoliteness}, gap.b...)),
		"v5 clear-claims":   rawFrame([]byte{5, walClearClaims}),
		"v7 push":           rawFrame(append([]byte{ProtoVersion + 1, opPush, 0}, gap.b...)),
	} {
		for _, inSnapshot := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/snapshot=%v", name, inSnapshot), func(t *testing.T) {
				dir := t.TempDir()
				srv := newWALServer(t, dir, 4)
				pushVia(t, srv, 1, "http://site001.com/a", 1, 0)
				seqs, _ := walFileSeqs(dir)
				file := walFilePath(dir, seqs[len(seqs)-1])
				old, _ := os.ReadFile(file)
				// Crash, then the foreign frame with one of ours after it.
				mixed := append(append(old, frame...), validFrame(t, walClearClaims, nil)...)
				if inSnapshot {
					// A downgrade: the snapshot opens with a newer build's frame.
					if err := srv.CloseWAL(); err != nil {
						t.Fatal(err)
					}
					file = filepath.Join(dir, walSnapName)
					old, _ = os.ReadFile(file)
					mixed = append(append([]byte(nil), frame...), old...)
				}
				if err := os.WriteFile(file, mixed, 0o644); err != nil {
					t.Fatal(err)
				}
				before := dirBytes(t, dir)
				err := NewShardServer(frontier.NewSharded(4)).OpenWAL(dir)
				if !errors.Is(err, errProtoVersion) || !strings.Contains(err.Error(), file) || !namesVersions(err.Error(), frame[8]) {
					t.Fatalf("OpenWAL = %v, want errProtoVersion naming %s and both versions", err, file)
				}
				if !inSnapshot && !strings.Contains(err.Error(), fmt.Sprintf("offset %d", len(old))) {
					t.Errorf("error %q does not give the frame's offset %d", err, len(old))
				}
				if !reflect.DeepEqual(dirBytes(t, dir), before) {
					t.Fatal("the refused open changed the directory")
				}
			})
		}
	}
}

// errAfter reads r, then fails with err where r would end.
type errAfter struct {
	r   io.Reader
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		err = e.err
	}
	return n, err
}

// TestWALReadErrorFailsReplay: a read error is not a torn tail. Valid
// frames followed by a failing read replay, then fail the replay with
// the error, and the file keeps its size; the same frames ending in a
// short read are swept as before.
func TestWALReadErrorFailsReplay(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 1, 0)
	pushVia(t, srv, 2, "http://site002.com/b", 2, 0)
	seqs, err := walFileSeqs(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	file := walFilePath(dir, seqs[len(seqs)-1])
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	eio := errors.New("input/output error")
	for _, cut := range []int{len(data), len(data) - 3} { // at a frame boundary, and inside the last frame
		srv2 := NewShardServer(frontier.NewSharded(4))
		err := srv2.replayWALLocked(file, &errAfter{bytes.NewReader(data[:cut]), eio})
		if !errors.Is(err, eio) || !strings.Contains(err.Error(), file) {
			t.Fatalf("cut %d: replay over a failing read = %v, want the read error naming %s", cut, err, file)
		}
		if st, err := os.Stat(file); err != nil || st.Size() != int64(len(data)) {
			t.Fatalf("cut %d: the failed replay changed the log: %v (err %v), was %d bytes", cut, st.Size(), err, len(data))
		}
	}
	srv3 := NewShardServer(frontier.NewSharded(4))
	if err := srv3.replayWALLocked(file, bytes.NewReader(data[:len(data)-3])); err != nil {
		t.Fatalf("replay over a torn tail: %v", err)
	}
	if got := srv3.Shards().Len(); got != 1 {
		t.Fatalf("torn replay recovered %d entries, want 1", got)
	}
	if st, err := os.Stat(file); err != nil || st.Size() >= int64(len(data)) {
		t.Fatalf("torn tail not swept: %d bytes, was %d (err %v)", st.Size(), len(data), err)
	}
}
