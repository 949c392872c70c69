package frontier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"webevolve/internal/seglog"
	"webevolve/internal/webgraph"
)

// openDiskSharded opens a disk-backed queue in a fresh temp dir with a
// deliberately tiny resident budget, so tests exercise the spill path
// hard.
func openDiskSharded(t testing.TB, shards, budget int) *Sharded {
	t.Helper()
	q, err := OpenSharded(StoreConfig{Shards: shards, SpillDir: t.TempDir(), ResidentBudget: budget})
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func eqEnt(a, b Entry) bool {
	return a.URL == b.URL && a.Due == b.Due && a.Priority == b.Priority
}

// entriesByURL collects the queue's entries through StreamEntries,
// sorted by URL.
func entriesByURL(t testing.TB, q *Sharded) []Entry {
	t.Helper()
	var out []Entry
	if err := q.StreamEntries(64, func(chunk []Entry) error {
		out = append(out, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// TestDiskTierMatchesMemTier drives an in-memory and a disk-backed
// queue through the same randomized operation mix — pushes with heavy
// (due, priority) ties and reschedules, removes, pops, claims, peeks —
// and requires bit-identical results throughout. This is the disk
// tier's core contract: pop order identical to the in-memory tier.
func TestDiskTierMatchesMemTier(t *testing.T) {
	mem := NewSharded(4)
	disk := openDiskSharded(t, 4, 8) // 2 resident entries per shard

	rng := rand.New(rand.NewSource(7))
	urls := make([]string, 400)
	for i := range urls {
		urls[i] = urlOn(i%37, i)
	}
	var claimed []int
	release := func() {
		sid := claimed[len(claimed)-1]
		claimed = claimed[:len(claimed)-1]
		next := float64(rng.Intn(5))
		mem.Release(sid, next)
		disk.Release(sid, next)
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(12); {
		case op < 4: // push / reschedule with frequent exact ties
			u := urls[rng.Intn(len(urls))]
			due, prio := float64(rng.Intn(8)), float64(rng.Intn(3))
			mem.Push(u, due, prio)
			disk.Push(u, due, prio)
		case op == 4:
			u := urls[rng.Intn(len(urls))]
			if mem.Remove(u) != disk.Remove(u) {
				t.Fatalf("step %d: Remove(%s) diverged", step, u)
			}
		case op < 7:
			now := float64(rng.Intn(10))
			me, mok := mem.PopDue(now)
			de, dok := disk.PopDue(now)
			if mok != dok || (mok && !eqEnt(me, de)) {
				t.Fatalf("step %d: PopDue(%g): mem=%+v,%v disk=%+v,%v", step, now, me, mok, de, dok)
			}
		case op == 7:
			now := float64(rng.Intn(10))
			me, msid, mok := mem.ClaimDue(now)
			de, dsid, dok := disk.ClaimDue(now)
			if mok != dok || (mok && (!eqEnt(me, de) || msid != dsid)) {
				t.Fatalf("step %d: ClaimDue(%g): mem=%+v,%d,%v disk=%+v,%d,%v", step, now, me, msid, mok, de, dsid, dok)
			}
			if mok {
				claimed = append(claimed, msid)
			}
			if len(claimed) > 2 {
				release()
			}
		case op == 8:
			me, mok := roundPop(mem)
			de, dok := roundPop(disk)
			if mok != dok || (mok && !eqEnt(me, de)) {
				t.Fatalf("step %d: round pop: mem=%+v,%v disk=%+v,%v", step, me, mok, de, dok)
			}
		case op == 9:
			n := rng.Intn(25)
			mp, _, mb, _ := mem.ApplyRound(nil, nil, nil, n)
			dp, _, db, _ := disk.ApplyRound(nil, nil, nil, n)
			if mb != db || len(mp) != len(dp) {
				t.Fatalf("step %d: peek %d: mem %d,%v disk %d,%v", step, n, len(mp), mb, len(dp), db)
			}
			for i := range mp {
				if !eqEnt(mp[i], dp[i]) {
					t.Fatalf("step %d: peek %d [%d]: mem=%+v disk=%+v", step, n, i, mp[i], dp[i])
				}
			}
		case op == 10:
			mt, mok := mem.NextEvent()
			dt, dok := disk.NextEvent()
			if mok != dok || mt != dt {
				t.Fatalf("step %d: NextEvent: mem=%g,%v disk=%g,%v", step, mt, mok, dt, dok)
			}
		default:
			if mem.Len() != disk.Len() {
				t.Fatalf("step %d: Len: mem=%d disk=%d", step, mem.Len(), disk.Len())
			}
			u := urls[rng.Intn(len(urls))]
			if mem.Contains(u) != disk.Contains(u) {
				t.Fatalf("step %d: Contains(%s) diverged", step, u)
			}
		}
	}
	for len(claimed) > 0 {
		release()
	}
	// Drain both completely; the full pop sequences must match.
	for {
		me, mok := mem.PopDue(math.Inf(1))
		de, dok := disk.PopDue(math.Inf(1))
		if mok != dok {
			t.Fatalf("drain: mem ok=%v disk ok=%v", mok, dok)
		}
		if !mok {
			break
		}
		if !eqEnt(me, de) {
			t.Fatalf("drain: mem=%+v disk=%+v", me, de)
		}
	}
}

// TestDiskTierResidentBudget verifies the tentpole's memory bound: only
// the due-soon head stays materialized while pushing and draining far
// more entries than the budget.
func TestDiskTierResidentBudget(t *testing.T) {
	const budget = 40
	q := openDiskSharded(t, 2, budget)
	const n = 5000
	for i := 0; i < n; i++ {
		// Distinct dues: exact tie groups may transiently exceed the
		// budget by design, which is not what this test measures.
		q.Push(urlOn(i%53, i), float64(i)*0.001, 0)
	}
	ts := q.Tier()
	if ts.Resident > budget {
		t.Fatalf("after push: %d resident entries, budget %d", ts.Resident, budget)
	}
	if ts.Spilled != n-ts.Resident {
		t.Fatalf("tier stats don't add up: %+v with %d entries", ts, n)
	}
	if ts.SpillBytes == 0 {
		t.Fatalf("no spill bytes after %d pushes", n)
	}
	var prev Entry
	for i := 0; i < n; i++ {
		e, ok := roundPop(q)
		if !ok {
			t.Fatalf("pop %d: queue drained", i)
		}
		if i > 0 && entryBefore(e, prev) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, e, prev)
		}
		prev = e
		if ts := q.Tier(); ts.Resident > budget {
			t.Fatalf("pop %d: %d resident entries, budget %d", i, ts.Resident, budget)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after drain: %d", q.Len())
	}
}

// TestDiskTierReopenRecoversEntries closes a disk-backed queue and
// reopens its spill directory: the record logs alone must reconstruct
// the surviving entries, including reschedules and removals.
func TestDiskTierReopenRecoversEntries(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 4, SpillDir: dir, ResidentBudget: 8}
	q, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		q.Push(urlOn(i%29, i), float64(i%10), float64(i%3))
	}
	for i := 0; i < 60; i++ { // reschedules
		q.Push(urlOn(i%29, i), float64(10+i), 1)
	}
	for i := 100; i < 140; i++ { // removals
		q.Remove(urlOn(i%29, i))
	}
	for i := 0; i < 50; i++ { // pops (tombstone the head)
		if _, ok := roundPop(q); !ok {
			t.Fatal("queue drained")
		}
	}
	want := entriesByURL(t, q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenSharded(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	got := entriesByURL(t, r)
	if len(got) != len(want) {
		t.Fatalf("reopen recovered %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !eqEnt(got[i], want[i]) {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Pop order after recovery must match the order the entries dictate.
	sort.Slice(want, func(i, j int) bool { return entryBefore(want[i], want[j]) })
	for i, w := range want {
		e, ok := roundPop(r)
		if !ok {
			t.Fatalf("pop %d after reopen: queue drained", i)
		}
		if !eqEnt(e, w) {
			t.Fatalf("pop %d after reopen: got %+v want %+v", i, e, w)
		}
	}
}

// TestDiskTierResetIsDurable: Reset empties a disk-tier queue, the
// queue takes new entries after it, and a reopen recovers only those:
// the reset reached the spill logs, not just the resident heads.
func TestDiskTierResetIsDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 4, SpillDir: dir, ResidentBudget: 8}
	q, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q.Push(urlOn(i%17, i), float64(i%10), 0)
	}
	q.Reset()
	if n := q.Len(); n != 0 {
		t.Fatalf("Len %d after Reset", n)
	}
	if _, ok := roundPop(q); ok {
		t.Fatal("popped from a reset queue")
	}
	q.Push(urlOn(3, 1000), 5, 1)
	q.Push(urlOn(4, 1001), 2, 1)
	want := entriesByURL(t, q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSharded(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	got := entriesByURL(t, r)
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("reopen recovered %d entries, want the 2 pushed after Reset", len(got))
	}
	for i := range want {
		if !eqEnt(got[i], want[i]) {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestDiskTierTornTailSwept crashes mid-append, in effigy: garbage and
// truncated frames after the last valid record must be swept away on
// reopen, keeping every complete record.
func TestDiskTierTornTailSwept(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 1, SpillDir: dir, ResidentBudget: 4}
	q, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		q.Push(urlOn(0, i), float64(i), 0)
	}
	cleanSize := q.Tier().SpillBytes // one shard: the log's exact size
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "frontier-0000", "segment-000001.log")
	if st, err := os.Stat(path); err != nil || st.Size() != cleanSize {
		t.Fatalf("log size %v (err %v), want %d", st, err, cleanSize)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: a plausible header promising more payload than the
	// file holds, followed by garbage.
	if _, err := f.Write([]byte{40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenSharded(cfg)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if r.Len() != n {
		t.Fatalf("recovered %d entries, want %d", r.Len(), n)
	}
	if got := r.Tier().SpillBytes; got != cleanSize {
		t.Fatalf("torn tail not truncated: log at %d bytes, want %d", got, cleanSize)
	}
	r.Close()
	if st, err := os.Stat(path); err != nil || st.Size() != cleanSize {
		t.Fatalf("on-disk log %v (err %v), want %d bytes", st, err, cleanSize)
	}
}

// TestDiskTierCorruptRecordTruncatesSuffix flips one CRC byte in the
// middle of the log: recovery must keep every record before the bad
// frame and drop it and everything after — the same discipline as the
// cluster WAL.
func TestDiskTierCorruptRecordTruncatesSuffix(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 1, SpillDir: dir, ResidentBudget: 4}
	q, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const keep, n = 30, 50
	var keepSize int64
	for i := 0; i < n; i++ {
		q.Push(urlOn(0, i), float64(i), 0)
		if i == keep-1 {
			keepSize = q.Tier().SpillBytes
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "frontier-0000", "segment-000001.log")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the CRC of record keep+1 (it starts at keepSize; bytes
	// 0..4 of the frame are the checksum).
	if _, err := f.WriteAt([]byte{0xff}, keepSize); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenSharded(cfg)
	if err != nil {
		t.Fatalf("reopen over corrupt record: %v", err)
	}
	defer r.Close()
	if r.Len() != keep {
		t.Fatalf("recovered %d entries, want %d", r.Len(), keep)
	}
	for i := 0; i < keep; i++ {
		e, ok := roundPop(r)
		if !ok {
			t.Fatalf("pop %d: queue drained", i)
		}
		if want := urlOn(0, i); e.URL != want || e.Due != float64(i) {
			t.Fatalf("pop %d: got %+v, want %s due %d", i, e, want, i)
		}
	}
}

// spillSegment is segment id of shard 0's spill log under dir.
func spillSegment(dir string, id int) string {
	return filepath.Join(dir, "frontier-0000", fmt.Sprintf("segment-%06d.log", id))
}

// fillOneShard writes n entries through a one-shard disk queue and
// closes it, leaving them in segment 1 of its spill log.
func fillOneShard(t *testing.T, cfg StoreConfig, n int) {
	t.Helper()
	q, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		q.Push(urlOn(0, i), float64(i), 0)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertOpenFailsUntouched reopens cfg expecting an error that names
// what, with segment 1 of the spill log unchanged.
func assertOpenFailsUntouched(t *testing.T, cfg StoreConfig, what string) {
	t.Helper()
	before, err := os.ReadFile(spillSegment(cfg.SpillDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := OpenSharded(cfg)
	if err == nil {
		q.Close()
		t.Fatalf("open over %s succeeded", what)
	}
	if !strings.Contains(err.Error(), what) {
		t.Fatalf("open error %q does not name %s", err, what)
	}
	after, err := os.ReadFile(spillSegment(cfg.SpillDir, 1))
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed open changed the spill log: %d bytes, was %d (err %v)", len(after), len(before), err)
	}
}

// TestDiskTierReadErrorFailsOpen: a spill segment that cannot be read
// (a directory in its place) fails the open; it is not a torn tail, and
// the log before it is not swept.
func TestDiskTierReadErrorFailsOpen(t *testing.T) {
	cfg := StoreConfig{Shards: 1, SpillDir: t.TempDir(), ResidentBudget: 4}
	fillOneShard(t, cfg, 20)
	if err := os.Mkdir(spillSegment(cfg.SpillDir, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	assertOpenFailsUntouched(t, cfg, "segment-000002.log")
}

// TestDiskTierRefusedRecordFailsOpen: an intact frame that is not a
// spill record (its value is not due and priority) is somebody's data,
// not a torn tail: the open fails naming it and sweeps nothing.
func TestDiskTierRefusedRecordFailsOpen(t *testing.T) {
	cfg := StoreConfig{Shards: 1, SpillDir: t.TempDir(), ResidentBudget: 4}
	fillOneShard(t, cfg, 20)
	frame := make([]byte, seglog.HeaderLen, seglog.HeaderLen+len("odd")+3)
	binary.LittleEndian.PutUint32(frame[4:], 3)
	binary.LittleEndian.PutUint32(frame[8:], 3)
	frame = append(frame, "oddval"...)
	binary.LittleEndian.PutUint32(frame, crc32.ChecksumIEEE(frame[4:]))
	f, err := os.OpenFile(spillSegment(cfg.SpillDir, 1), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	assertOpenFailsUntouched(t, cfg, `"odd"`)
}

// TestDiskTierRefusesOldLayout: a spill directory holding a spill log
// in the layout of earlier builds (one frontier-NNNN.log file per
// shard) fails the open naming the file, and leaves it in place.
func TestDiskTierRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "frontier-0001.log")
	if err := os.WriteFile(old, []byte("old spill log"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := OpenSharded(StoreConfig{Shards: 2, SpillDir: dir})
	if err == nil {
		q.Close()
		t.Fatal("open over an old-layout spill log succeeded")
	}
	if !strings.Contains(err.Error(), old) {
		t.Fatalf("open error %q does not name %s", err, old)
	}
	if b, err := os.ReadFile(old); err != nil || string(b) != "old spill log" {
		t.Fatalf("old-layout spill log disturbed: %q, %v", b, err)
	}
}

// TestDiskTierCompaction reschedules a working set until dead records
// dominate the log, and verifies the log shrinks back to its live
// records without disturbing entries, pop order, or recovery.
func TestDiskTierCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 1, SpillDir: dir, ResidentBudget: 8}
	q, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 3<<10)
	const live, writes = 1000, 3000
	url := func(i int) string {
		return fmt.Sprintf("http://site000.com/%s/p%04d", pad, i%live)
	}
	var peak int64
	for i := 0; i < writes; i++ {
		q.Push(url(i), float64(i), 0)
		if sb := q.Tier().SpillBytes; sb > peak {
			peak = sb
		}
	}
	ts := q.Tier()
	if ts.SpillBytes >= peak {
		t.Fatalf("log never compacted: %d bytes, peak %d", ts.SpillBytes, peak)
	}
	// Reschedules after the compaction keep appending, so the log is
	// live records plus a sub-threshold tail — well under what an
	// uncompacted log would hold.
	full := int64(writes) * int64(seglog.HeaderLen+len(url(0))+spillValLen)
	if ts.SpillBytes > full*2/3 {
		t.Fatalf("compacted log still %d bytes of %d written", ts.SpillBytes, full)
	}
	if q.Len() != live {
		t.Fatalf("entries after compaction: %d, want %d", q.Len(), live)
	}
	// Reads go through the rewritten offsets.
	for i := 0; i < 10; i++ {
		e, ok := roundPop(q)
		if !ok {
			t.Fatalf("pop %d: queue drained", i)
		}
		if want := url(writes - live + i); e.URL != want || e.Due != float64(writes-live+i) {
			t.Fatalf("pop %d after compaction: got %+v, want %s", i, e, want)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSharded(cfg)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer r.Close()
	if r.Len() != live-10 {
		t.Fatalf("recovered %d entries after compaction, want %d", r.Len(), live-10)
	}
}

// TestExtractPartitionsLimitChunks verifies the chunked migration
// export: looping ExtractPartitionsLimit with a cursor must hand over
// exactly what one unbounded call does, on both storage tiers.
func TestExtractPartitionsLimitChunks(t *testing.T) {
	const parts = 64
	fill := func(q *Sharded) {
		for i := 0; i < 300; i++ {
			q.Push(urlOn(i%31, i), float64(i%7), float64(i%2))
		}
	}
	set := map[int]bool{}
	for p := 0; p < parts; p += 3 {
		set[p] = true
	}
	whole := NewSharded(4)
	fill(whole)
	want, _ := whole.ExtractPartitionsLimit(parts, set, "", 0)

	for _, tier := range []string{"mem", "disk"} {
		q := NewSharded(4)
		if tier == "disk" {
			q = openDiskSharded(t, 4, 8)
		}
		fill(q)
		wantLeft := q.Len() - len(want)
		var got []Entry
		after := ""
		for {
			chunk, more := q.ExtractPartitionsLimit(parts, set, after, 37)
			if !sort.SliceIsSorted(chunk, func(i, j int) bool { return chunk[i].URL < chunk[j].URL }) {
				t.Fatalf("%s: chunk not URL-sorted", tier)
			}
			got = append(got, chunk...)
			if !more || len(chunk) == 0 {
				break
			}
			after = chunk[len(chunk)-1].URL
		}
		if len(got) != len(want) {
			t.Fatalf("%s: chunked export got %d entries, want %d", tier, len(got), len(want))
		}
		for i := range want {
			if !eqEnt(got[i], want[i]) {
				t.Fatalf("%s: entry %d: got %+v want %+v", tier, i, got[i], want[i])
			}
		}
		if q.Len() != wantLeft {
			t.Fatalf("%s: %d entries left after export, want %d", tier, q.Len(), wantLeft)
		}
		for _, e := range got {
			if sid := HostShard(webgraph.SiteOf(e.URL), parts); !set[sid] {
				t.Fatalf("%s: exported %s from partition %d outside the set", tier, e.URL, sid)
			}
		}
	}
}

// TestStreamEntriesCoversQueue verifies the streamed snapshot body:
// chunks collected from StreamEntries must contain exactly the queue's
// entries, on both tiers, with the buffer reused between emits.
func TestStreamEntriesCoversQueue(t *testing.T) {
	for _, tier := range []string{"mem", "disk"} {
		q := NewSharded(4)
		if tier == "disk" {
			q = openDiskSharded(t, 4, 8)
		}
		var want []Entry
		for i := 0; i < 200; i++ {
			q.Push(urlOn(i%23, i), float64(i%9), float64(i%3))
			want = append(want, Entry{URL: urlOn(i%23, i), Due: float64(i % 9), Priority: float64(i % 3)})
		}
		var got []Entry
		err := q.StreamEntries(7, func(chunk []Entry) error {
			got = append(got, append([]Entry(nil), chunk...)...)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: StreamEntries: %v", tier, err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].URL < got[j].URL })
		sort.Slice(want, func(i, j int) bool { return want[i].URL < want[j].URL })
		if len(got) != len(want) {
			t.Fatalf("%s: streamed %d entries, want %d", tier, len(got), len(want))
		}
		for i := range want {
			if !eqEnt(got[i], want[i]) {
				t.Fatalf("%s: entry %d: got %+v want %+v", tier, i, got[i], want[i])
			}
		}
	}
}
