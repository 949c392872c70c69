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

// roundVia applies one round through the wire path (so it is logged),
// not the frontier directly, and returns its candidates.
func roundVia(t *testing.T, srv *ShardServer, reqID uint64, pops []string, pushes []frontier.Entry, peek int) []frontier.Entry {
	t.Helper()
	st, resp := srv.handle(opRound, roundBody(reqID, pops, nil, pushes, peek))
	if st != statusOK {
		t.Fatalf("round: %s", resp)
	}
	d := newDec(resp)
	cands := decodeEntries(d)
	d.bool()
	if err := d.finish(); err != nil {
		t.Fatalf("bad round reply: %v", err)
	}
	return cands
}

// pushVia pushes one entry through the wire path.
func pushVia(t *testing.T, srv *ShardServer, reqID uint64, url string, due, prio float64) {
	t.Helper()
	roundVia(t, srv, reqID, nil, []frontier.Entry{{URL: url, Due: due, Priority: prio}}, 0)
}

// popVia pops the queue's head through the wire path if it is due at
// now: a peek round under reqID, then a pop round under reqID+1. A peek
// changes nothing, so it is never logged.
func popVia(t *testing.T, srv *ShardServer, reqID uint64, now float64) (frontier.Entry, bool) {
	t.Helper()
	head := roundVia(t, srv, reqID, nil, nil, 1)
	if len(head) == 0 || head[0].Due > now {
		return frontier.Entry{}, false
	}
	roundVia(t, srv, reqID+1, []string{head[0].URL}, nil, 0)
	return head[0], true
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
		e, ok := popVia(t, srv, uint64(2000+2*i), 10)
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
		req += 2
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
// and the snapshot's bytes are the pinned ones (see checkGolden). The
// pinned state is what three pushes and a pop left when the per-entry
// ops wrote them: the entries and the memoized replies of request IDs
// 1–4 (empty for the pushes, the popped entry for the pop), which is
// all a snapshot holds. Those ops are retired, so it is made here
// directly.
func TestWALGracefulFlush(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 2)
	q := srv.Shards()
	q.Push("http://site001.com/a", 1, 2)
	q.Push("http://site001.com/b", 0.25, 0)
	q.Push("http://site002.com/index.html", 3, 1)
	for id := uint64(1); id <= 3; id++ {
		srv.dedup.put(id, statusOK, nil)
	}
	popped, ok := q.PopDue(1)
	if !ok {
		t.Fatal("nothing due")
	}
	var reply enc
	reply.bool(true).str(popped.URL).f64(popped.Due).f64(popped.Priority)
	srv.dedup.put(4, statusOK, reply.b)
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

// walRoundBody builds a round body pushing urls; over testURLs(16, 24)
// it is past parentCompressMin (front-coded URLs), a body earlier
// builds wrote deflated.
func walRoundBody(reqID uint64, urls []string) []byte {
	ents := make([]frontier.Entry, len(urls))
	for i, u := range urls {
		ents[i] = frontier.Entry{URL: u, Due: float64(i)}
	}
	return roundBody(reqID, nil, nil, ents, 0)
}

// TestWALRefusesCompressedFrames: a log in which an earlier build wrote
// a round compressed, between frames of this build, holds that build's
// acknowledged work, which this build cannot read. After a crash (no
// CloseWAL, no snapshot) OpenWAL must fail naming the file, the frame's
// offset and the flag, and leave the log byte for byte as it was.
func TestWALRefusesCompressedFrames(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site100.com/a", 1, 0)
	seqs, err := walFileSeqs(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	active := walFilePath(dir, seqs[len(seqs)-1])
	offset, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(parentFrame(opRound, walRoundBody(900, testURLs(16, 24)))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	pushVia(t, srv, 2, "http://site101.com/b", 2, 0)
	if n := compressedFrames(t, active); n != 1 {
		t.Fatalf("%d compressed frames in the log, want 1", n)
	}

	before := dirBytes(t, dir)
	err = NewShardServer(frontier.NewSharded(4)).OpenWAL(dir)
	if !errors.Is(err, errProtoVersion) || !namesCompressed(err.Error()) ||
		!strings.Contains(err.Error(), fmt.Sprintf("%s: frame at offset %d", active, offset.Size())) {
		t.Fatalf("OpenWAL = %v, want errProtoVersion naming %s, offset %d and the flag", err, active, offset.Size())
	}
	if !reflect.DeepEqual(dirBytes(t, dir), before) {
		t.Fatal("the refused open changed the directory")
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

	// A well-formed compressed round frame, torn 5 bytes short: the
	// length prefix promises more than the file holds.
	torn := parentFrame(opRound, walRoundBody(901, testURLs(16, 24)))
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
// Applied again, the retried round would re-queue the URL a later
// round popped.
func TestWALDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 0, 0)
	pushVia(t, srv, 2, "http://site002.com/b", 0, 1)
	const c = "http://site003.com/c"
	push := roundBody(77, nil, nil, []frontier.Entry{{URL: c, Priority: 5}}, 1)
	if st, resp := srv.handle(opRound, push); st != statusOK {
		t.Fatalf("round: %s", resp)
	}
	roundVia(t, srv, 78, []string{c}, nil, 0)
	// Crash before the first round's response reached the client; the
	// client retries the identical frame against the restarted server.
	srv2 := newWALServer(t, dir, 4)
	if st, resp := srv2.handle(opRound, push); st != statusOK {
		t.Fatalf("retry across restart: %s", resp)
	}
	if srv2.Shards().Contains(c) || srv2.Shards().Len() != 2 {
		t.Fatalf("retry across restart re-applied: Len = %d, want 2 without %s", srv2.Shards().Len(), c)
	}
}

// TestWALShardCountChange: restoring a snapshot into a different shard
// layout keeps every entry, re-hashed.
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

// TestShardHelloWritesNothing: the shard hello answers the shard count
// and changes nothing a server keeps — no WAL record, no file touched.
func TestShardHelloWritesNothing(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, 4)
	pushVia(t, srv, 1, "http://site001.com/a", 0, 0)
	before, appends := dirBytes(t, dir), walAppends.Value()
	st, resp := srv.handle(opShardHello, nil)
	if d := newDec(resp); st != statusOK || d.u32() != 4 || d.finish() != nil {
		t.Fatalf("hello = (%d, %q), want the shard count 4", st, resp)
	}
	if walAppends.Value() != appends || !reflect.DeepEqual(dirBytes(t, dir), before) {
		t.Fatal("a hello wrote to the WAL directory")
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

// TestWALSkipsNoOpPops: rounds that change nothing — peeks of an empty
// frontier that find nothing to pop — must not grow the log, or a crawl
// polling an empty frontier would churn it without bound.
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
		if _, ok := popVia(t, srv, uint64(100+2*i), 5); ok {
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
// the last multi-version build logged on every client connect; the v6
// round is one an earlier build of this version wrote compressed.
func TestWALRefusesOtherVersions(t *testing.T) {
	var gap enc
	gap.f64(0.5)
	for name, frame := range map[string][]byte{
		"v5 set-politeness":   rawFrame(append([]byte{5, retiredWALSetPoliteness}, gap.b...)),
		"v5 clear-claims":     rawFrame([]byte{5, retiredWALClearClaims}),
		"v7 round":            rawFrame(append([]byte{ProtoVersion + 1, opRound, 0}, gap.b...)),
		"v6 compressed round": parentFrame(opRound, walRoundBody(3, testURLs(16, 24))),
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
				mixed := append(append(old, frame...), validFrame(t, opRound, walRoundBody(2, testURLs(1, 1)))...)
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
				if frame[8] == ProtoVersion && !namesCompressed(err.Error()) {
					t.Fatalf("OpenWAL = %v, want the compressed flag named", err)
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

// TestWALRefusesUnreplayableOps: an intact log frame whose op this
// build does not apply — a retired op an older build logged, a session
// record (gap, claim reset) that builds before opShardHello logged at
// every hello, or a byte no op was ever given — holds acknowledged
// work. Skipping it would
// lose that work without a word, and truncating would erase it and all
// that follows; OpenWAL must fail naming the file, the frame's offset
// and the op, and leave every file byte-identical.
func TestWALRefusesUnreplayableOps(t *testing.T) {
	for name, tc := range map[string]struct {
		op   byte
		body []byte
	}{
		"retired_push_batch":         {retiredPushBatch, seedBodies()[retiredPushBatch][0]},
		"retired_push":               {retiredPush, seedBodies()[retiredPush][0]},
		"retired_wal_set_politeness": {retiredWALSetPoliteness, make([]byte, 8)},
		"retired_wal_clear_claims":   {retiredWALClearClaims, nil},
		"op_238":                     {0xEE, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv := newWALServer(t, dir, 4)
			pushVia(t, srv, 1, "http://site001.com/a", 1, 0)
			seqs, _ := walFileSeqs(dir)
			file := walFilePath(dir, seqs[len(seqs)-1])
			old, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			// Crash, with the frame and one of ours after it.
			mixed := append(append(old, validFrame(t, tc.op, tc.body)...), validFrame(t, opRound, walRoundBody(2, testURLs(1, 1)))...)
			if err := os.WriteFile(file, mixed, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, dir)
			err = NewShardServer(frontier.NewSharded(4)).OpenWAL(dir)
			want := fmt.Sprintf("cluster: wal: %s: frame at offset %d: op %s is not replayable", file, len(old), name)
			if err == nil || err.Error() != want {
				t.Fatalf("OpenWAL = %v, want %q", err, want)
			}
			if !reflect.DeepEqual(dirBytes(t, dir), before) {
				t.Fatal("the refused open changed the directory")
			}
		})
	}
}
