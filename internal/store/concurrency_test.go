package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webevolve/internal/seglog"
)

// TestDiskGetCompactRace is the regression test for the Get/compaction
// race: Get used to drop the lock before opening the segment file, so a
// concurrent Compact could os.Remove the segment under the read and a
// live Get failed with file-not-found. With pinned segment handles every
// Get must succeed with a consistent record.
func TestDiskGetCompactRace(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const keys = 8
	url := func(i int) string { return fmt.Sprintf("http://race.com/p%d", i) }
	for i := 0; i < keys; i++ {
		if err := d.Put(rec(url(i), 1)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Value
	fail := func(err error) { failed.CompareAndSwap(nil, err) }

	// Writers generate garbage so compaction has work; compactor runs
	// continuously; getters read continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 2; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < keys; i++ {
				if err := d.Put(rec(url(i), uint64(round))); err != nil {
					fail(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.Compact(); err != nil {
				fail(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, ok, err := d.Get(url(i % keys))
				if err != nil {
					fail(fmt.Errorf("get during compact: %w", err))
					return
				}
				if !ok {
					fail(fmt.Errorf("%s vanished during compact", url(i%keys)))
					return
				}
				if got.Checksum < 1 {
					fail(fmt.Errorf("%s read garbage checksum %d", got.URL, got.Checksum))
					return
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := failed.Load(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCorruptTailSwept is the regression test for fatal replay on a
// corrupt tail: a crash that leaves a full-length garbage frame (valid
// lengths, bad CRC) used to make OpenDisk fail permanently with
// "checksum mismatch". Replay must instead sweep the tail — truncate
// back to the last CRC-valid frame — keep the prior records, and leave
// a writable store.
func TestDiskCorruptTailSwept(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Put(rec(fmt.Sprintf("http://s.com/p%d", i), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Append a full-length garbage frame: plausible lengths, wrong CRC —
	// io.ReadFull succeeds, only the checksum catches it.
	seg := segmentPath(dir, 1)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := st.Size()
	var frame []byte
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0xdeadbeef) // bogus CRC
	binary.LittleEndian.PutUint32(hdr[4:8], 4)          // keyLen
	binary.LittleEndian.PutUint32(hdr[8:12], 8)         // valLen
	frame = append(frame, hdr[:]...)
	frame = append(frame, []byte("keyyvalvalval")[:12]...)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("reopen after corrupt tail must sweep, not fail: %v", err)
	}
	if d2.Len() != 5 {
		t.Fatalf("len %d after sweep, want 5", d2.Len())
	}
	for i := 0; i < 5; i++ {
		got, ok, err := d2.Get(fmt.Sprintf("http://s.com/p%d", i))
		if err != nil || !ok || got.Checksum != uint64(i+1) {
			t.Fatalf("record %d after sweep: %+v ok=%v err=%v", i, got, ok, err)
		}
	}
	if err := d2.Put(rec("http://s.com/after", 99)); err != nil {
		t.Fatalf("post-sweep write: %v", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	// The sweep must be durable: the garbage is physically truncated
	// away, so the next replay never re-reads it.
	st, err = os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != goodSize {
		t.Fatalf("segment size %d after sweep, want %d (garbage not truncated)", st.Size(), goodSize)
	}
}

// TestDiskScanDuringCompact pins the segments a Scan snapshot
// references: a Compact (and even a Close) racing the scan must not
// invalidate its reads mid-flight.
func TestDiskScanDuringCompact(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := d.Put(rec(fmt.Sprintf("http://s.com/p%03d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	started := make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		<-started
		// Overwrite everything so compaction rewrites into a new segment,
		// then compact twice to also exercise retire-while-pinned.
		for i := 0; i < n; i++ {
			if err := d.Put(rec(fmt.Sprintf("http://s.com/p%03d", i), uint64(i+1000))); err != nil {
				compacted <- err
				return
			}
		}
		err := d.Compact()
		if err == nil {
			err = d.Compact()
		}
		compacted <- err
	}()
	seen := 0
	err = d.Scan(func(PageRecord) bool {
		if seen == 0 {
			close(started)
			// Let the compactor retire every segment under the scan.
			if err := <-compacted; err != nil {
				t.Errorf("compact during scan: %v", err)
			}
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatalf("scan during compact: %v", err)
	}
	if seen != n {
		t.Fatalf("scan saw %d records, want %d", seen, n)
	}
}

// TestDiskConcurrentStress hammers Get/PutBatch/Delete/Compact/Scan from
// many goroutines under -race, then model-checks the survivors.
func TestDiskConcurrentStress(t *testing.T) {
	d, err := openDisk(t.TempDir(), 4096, seglog.DefaultOpenSegments) // frequent rolls
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const keys = 64
	url := func(i int) string { return fmt.Sprintf("http://stress.com/p%02d", i) }
	var failed atomic.Value
	fail := func(err error) { failed.CompareAndSwap(nil, err) }
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// latest[i] is the last checksum writer i committed per key — used
	// only for a weak sanity bound (reads can't see values from the
	// future); the authoritative check is the final sequential pass.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 1; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					batch := make([]PageRecord, 0, 8)
					for i := 0; i < 8; i++ {
						batch = append(batch, rec(url(rng.Intn(keys)), uint64(round)))
					}
					if err := d.PutBatch(batch); err != nil {
						fail(err)
						return
					}
				case 1:
					if err := d.Delete(url(rng.Intn(keys))); err != nil {
						fail(err)
						return
					}
				case 2:
					if err := d.Compact(); err != nil {
						fail(err)
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(10) == 0 {
					if err := d.Scan(func(PageRecord) bool { return true }); err != nil {
						fail(fmt.Errorf("scan: %w", err))
						return
					}
					continue
				}
				if _, _, err := d.Get(url(rng.Intn(keys))); err != nil {
					fail(fmt.Errorf("get: %w", err))
					return
				}
			}
		}(g)
	}
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := failed.Load(); err != nil {
		t.Fatal(err)
	}
	// Quiesced: Len, URLs, Get and Scan must agree with each other.
	urls := d.URLs()
	if len(urls) != d.Len() {
		t.Fatalf("URLs %d vs Len %d", len(urls), d.Len())
	}
	scanned := 0
	if err := d.Scan(func(r PageRecord) bool {
		if r.URL != urls[scanned] {
			t.Fatalf("scan order: got %s want %s", r.URL, urls[scanned])
		}
		scanned++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if scanned != len(urls) {
		t.Fatalf("scan visited %d, URLs has %d", scanned, len(urls))
	}
	for _, u := range urls {
		if _, ok, err := d.Get(u); err != nil || !ok {
			t.Fatalf("final get %s: ok=%v err=%v", u, ok, err)
		}
	}
}

// TestDiskCrashReopen simulates a SIGKILL: records are written in
// batches (each batch is flushed before it is acknowledged), the
// segment files are byte-copied at several batch boundaries without
// closing the store, and each copy must reopen to exactly the
// acknowledged contents at that instant.
func TestDiskCrashReopen(t *testing.T) {
	src := t.TempDir()
	d, err := openDisk(src, 2048, seglog.DefaultOpenSegments) // several segments
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	type snapshot struct {
		dir   string
		model map[string]uint64
	}
	var snaps []snapshot
	model := make(map[string]uint64)
	rng := rand.New(rand.NewSource(7))
	for batch := 1; batch <= 30; batch++ {
		recs := make([]PageRecord, 0, 10)
		for i := 0; i < 10; i++ {
			u := fmt.Sprintf("http://crash.com/p%02d", rng.Intn(40))
			recs = append(recs, rec(u, uint64(batch*100+i)))
		}
		if err := d.PutBatch(recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			model[r.URL] = r.Checksum
		}
		if batch%7 == 0 {
			du := fmt.Sprintf("http://crash.com/p%02d", rng.Intn(40))
			if err := d.Delete(du); err != nil {
				t.Fatal(err)
			}
			delete(model, du)
		}
		if batch%10 == 0 {
			// "Kill" the process here: copy the directory image as the
			// filesystem holds it, store still open and never Closed.
			snap := snapshot{dir: t.TempDir(), model: make(map[string]uint64, len(model))}
			for k, v := range model {
				snap.model[k] = v
			}
			ids, err := segmentIDs(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				data, err := os.ReadFile(segmentPath(src, id))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(snap.dir, filepath.Base(segmentPath(src, id))), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			snaps = append(snaps, snap)
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots taken")
	}
	for i, snap := range snaps {
		re, err := OpenDisk(snap.dir)
		if err != nil {
			t.Fatalf("snapshot %d: reopen: %v", i, err)
		}
		if re.Len() != len(snap.model) {
			t.Fatalf("snapshot %d: rebuilt %d records, want %d", i, re.Len(), len(snap.model))
		}
		for u, sum := range snap.model {
			got, ok, err := re.Get(u)
			if err != nil || !ok || got.Checksum != sum {
				t.Fatalf("snapshot %d: %s: %+v ok=%v err=%v want sum %d", i, u, got, ok, err, sum)
			}
		}
		// The rebuilt store must keep accepting writes.
		if err := re.Put(rec("http://crash.com/after", 1)); err != nil {
			t.Fatalf("snapshot %d: post-crash write: %v", i, err)
		}
		re.Close()
	}
}

// TestDiskColdSegmentReopen caps open handles far below the segment
// count: reads must transparently reopen evicted segments, the open-FD
// count must respect the cap at rest, and everything must still verify
// after reopen and under concurrent access.
func TestDiskColdSegmentReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := openDisk(dir, 1024, 2) // many small segments, two handles
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		r := rec(fmt.Sprintf("http://cold.com/p%03d", i), uint64(i))
		r.Content = []byte(fmt.Sprintf("%0200d", i))
		if err := d.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 8 {
		t.Fatalf("want many segments, got %d", len(ids))
	}
	checkAll := func(d *Disk) {
		t.Helper()
		for i := 0; i < n; i++ {
			got, ok, err := d.Get(fmt.Sprintf("http://cold.com/p%03d", i))
			if err != nil || !ok || got.Checksum != uint64(i) {
				t.Fatalf("cold get p%03d: %+v ok=%v err=%v", i, got, ok, err)
			}
		}
		seen := 0
		if err := d.Scan(func(PageRecord) bool { seen++; return true }); err != nil {
			t.Fatal(err)
		}
		if seen != n {
			t.Fatalf("scan over cold segments saw %d, want %d", seen, n)
		}
		if fds := openFilesIn(t, dir); fds > 2 {
			t.Fatalf("open FDs %d exceed cap 2 at rest", fds)
		}
	}
	checkAll(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := openDisk(dir, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	// Force eviction of the replay-opened handles via reads.
	checkAll(d2)
}

// openFilesIn counts this process's descriptors open on files in dir.
func openFilesIn(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor listing: %v", err)
	}
	if dir, err = filepath.EvalSymlinks(dir); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && filepath.Dir(target) == dir {
			n++
		}
	}
	return n
}

// TestScanFromResumes checks the chunked-scan resume point on both
// backends: ScanFrom(after) must yield exactly the records strictly
// after `after`, in order — including when `after` is not a stored URL.
func TestScanFromResumes(t *testing.T) {
	type scanFromer interface {
		ScanFrom(after string, fn func(PageRecord) bool) error
	}
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer c.Close()
			const n = 9
			for i := 0; i < n; i++ {
				if err := c.Put(rec(fmt.Sprintf("http://s.com/p%02d", i*2), uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			sf := c.(scanFromer)
			for _, tc := range []struct {
				after string
				want  int // surviving records
			}{
				{"", n},
				{"http://s.com/p04", n - 3}, // existing URL: strictly after
				{"http://s.com/p05", n - 3}, // between stored URLs
				{"http://s.com/p16", 0},     // last URL
				{"http://s.com/p99", 0},     // past the end
				{"http://a.com/", n},        // before the start
			} {
				var got []string
				if err := sf.ScanFrom(tc.after, func(r PageRecord) bool {
					got = append(got, r.URL)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(got) != tc.want {
					t.Fatalf("ScanFrom(%q) yielded %d records %v, want %d", tc.after, len(got), got, tc.want)
				}
				for i, u := range got {
					if u <= tc.after {
						t.Fatalf("ScanFrom(%q) yielded %s (not strictly after)", tc.after, u)
					}
					if i > 0 && got[i-1] >= u {
						t.Fatalf("ScanFrom(%q) out of order: %v", tc.after, got)
					}
				}
			}
		})
	}
}

// TestShadowedSwapDeferredClose is the regression test for Swap closing
// the current collection under a live reader: a Scan obtained via
// Current() before the swap must complete without ErrClosed, and the
// old collection must still be closed once the scan finishes.
func TestShadowedSwapDeferredClose(t *testing.T) {
	dir := t.TempDir()
	gen := 0
	var mu sync.Mutex
	newShadow := func() (Collection, error) {
		mu.Lock()
		gen++
		g := gen
		mu.Unlock()
		return OpenDisk(filepath.Join(dir, fmt.Sprintf("gen%d", g)))
	}
	s, err := NewShadowed(nil, newShadow)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Current().Put(rec(fmt.Sprintf("http://a.com/p%02d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}

	old := s.Current()
	swapped := make(chan error, 1)
	seen := 0
	err = old.Scan(func(PageRecord) bool {
		if seen == 0 {
			// Swap mid-scan: the old current is retired while we hold a
			// live call on it.
			go func() {
				_, err := s.Swap()
				swapped <- err
			}()
			if err := <-swapped; err != nil {
				t.Errorf("swap: %v", err)
			}
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatalf("scan across swap must not fail: %v", err)
	}
	if seen != n {
		t.Fatalf("scan saw %d records, want %d", seen, n)
	}
	// With the scan finished the old collection must now be closed.
	if err := old.Put(rec("http://a.com/late", 1)); err != ErrClosed {
		t.Fatalf("old collection accepts writes after swap: %v", err)
	}
	if g, ok := old.(*guarded); !ok || !g.closed {
		t.Fatal("old collection's underlying Close never ran")
	}
}

// TestShadowedSwapDeferredCloseScanFrom is TestShadowedSwapDeferredClose
// for the paged read path: a ScanFrom resume obtained before the swap
// (the serving plane's listing endpoint mid-page) must complete against
// the collection it started on, never surfacing ErrClosed.
func TestShadowedSwapDeferredCloseScanFrom(t *testing.T) {
	dir := t.TempDir()
	gen := 0
	var mu sync.Mutex
	newShadow := func() (Collection, error) {
		mu.Lock()
		gen++
		g := gen
		mu.Unlock()
		return OpenDisk(filepath.Join(dir, fmt.Sprintf("gen%d", g)))
	}
	s, err := NewShadowed(nil, newShadow)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Current().Put(rec(fmt.Sprintf("http://a.com/p%02d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}

	view, genBefore := s.View()
	seen := 0
	err = view.ScanFrom("http://a.com/p04", func(PageRecord) bool {
		if seen == 0 {
			if _, err := s.Swap(); err != nil {
				t.Errorf("swap: %v", err)
			}
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatalf("ScanFrom across swap must not fail: %v", err)
	}
	if seen != n-5 {
		t.Fatalf("ScanFrom saw %d records, want %d", seen, n-5)
	}
	if _, genAfter := s.View(); genAfter != genBefore+1 {
		t.Fatalf("View generation %d after swap, want %d", genAfter, genBefore+1)
	}
	// New reads start on the freshly published (empty) collection.
	if r, _ := s.View(); r.Len() != 0 {
		t.Fatalf("post-swap view holds %d records, want 0", r.Len())
	}
}

// TestShadowedCloseWaitsForReaders mirrors the swap test for Close.
func TestShadowedCloseWaitsForReaders(t *testing.T) {
	s := NewShadowedMem()
	for i := 0; i < 5; i++ {
		if err := s.Current().Put(rec(fmt.Sprintf("http://a.com/p%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	cur := s.Current()
	seen := 0
	err := cur.Scan(func(PageRecord) bool {
		if seen == 0 {
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatalf("scan across close: %v", err)
	}
	if seen != 5 {
		t.Fatalf("scan saw %d records, want 5", seen)
	}
	if _, _, err := cur.Get("http://a.com/p0"); err != ErrClosed {
		t.Fatalf("get after close: %v", err)
	}
}

// TestScanBesideWrites runs ScanFrom on both backends beside PutBatch
// overwrites, deletes and re-adds, and (disk) back-to-back compactions
// over small, rolling, evictable segments. Every scan must return
// strictly ascending keys strictly after its cursor; each record must
// be the version committed when the scan started or a later one, with
// the body that version of that key was written with — never another
// key's bytes, never bytes of a segment compaction retired, whose file
// a reader may still have had open; and the keys nobody deletes must
// all be seen.
func TestScanBesideWrites(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			d, _ := c.(*Disk)
			if d != nil { // small segments and few handles: rolls and reopens mid-scan
				c.Close()
				var err error
				if d, err = openDisk(t.TempDir(), 8<<10, 3); err != nil {
					t.Fatal(err)
				}
				c = d
			}
			defer c.Close()
			const keys, stable = 120, 80 // keys >= stable come and go
			url := func(i int) string { return fmt.Sprintf("http://scan.com/p%03d", i) }
			index := make(map[string]int, keys)
			for i := 0; i < keys; i++ {
				index[url(i)] = i
			}
			body := func(i, version int) []byte {
				return []byte(fmt.Sprintf("%s v%d %0200d", url(i), version, i*version))
			}
			mk := func(i, version int) PageRecord {
				b := body(i, version)
				return PageRecord{URL: url(i), Version: version, Checksum: uint64(len(b)), Links: []string{url((i + 1) % keys)}, Content: b}
			}
			var committed [keys]atomic.Int64 // highest version whose PutBatch returned
			var batch []PageRecord
			for i := 0; i < keys; i++ {
				batch = append(batch, mk(i, 1))
				committed[i].Store(1)
			}
			if err := c.PutBatch(batch); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			run := func(fn func(rng *rand.Rand, round int) error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(keys)))
					for round := 2; ; round++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := fn(rng, round); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			// Overwrites of the stable keys, a run of them per batch.
			run(func(rng *rand.Rand, round int) error {
				lo := rng.Intn(stable - 10)
				batch := make([]PageRecord, 0, 10)
				for i := lo; i < lo+10; i++ {
					batch = append(batch, mk(i, round))
				}
				if err := c.PutBatch(batch); err != nil {
					return err
				}
				for i := lo; i < lo+10; i++ {
					committed[i].Store(int64(round))
				}
				return nil
			})
			// The volatile keys are deleted and put back: key-set changes the
			// ordered index must fold in between scans.
			run(func(rng *rand.Rand, round int) error {
				i := stable + rng.Intn(keys-stable)
				if rng.Intn(2) == 0 {
					return c.Delete(url(i))
				}
				return c.Put(mk(i, round))
			})
			if d != nil {
				run(func(*rand.Rand, int) error { return d.Compact() })
			}

			rng := rand.New(rand.NewSource(7))
			var floor [keys]int64
			for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
				after, seen, last := "", 0, ""
				if rng.Intn(2) == 0 {
					after = url(rng.Intn(keys))
				}
				for i := range floor {
					floor[i] = committed[i].Load()
				}
				err := c.ScanFrom(after, func(r PageRecord) bool {
					i, ok := index[r.URL]
					switch {
					case !ok:
						t.Errorf("scan returned unknown key %q", r.URL)
					case r.URL <= after || r.URL <= last:
						t.Errorf("ScanFrom(%q): %s after %q", after, r.URL, last)
					case i < stable && int64(r.Version) < floor[i]:
						t.Errorf("%s: version %d, but %d was committed before the scan started", r.URL, r.Version, floor[i])
					case !bytes.Equal(r.Content, body(i, r.Version)) || len(r.Links) != 1 || r.Links[0] != url((i+1)%keys):
						t.Errorf("%s v%d: not the bytes that version was written with: %q %v", r.URL, r.Version, r.Content, r.Links)
					}
					if i < stable {
						seen++
					}
					last = r.URL
					return !t.Failed()
				})
				if err != nil {
					t.Fatalf("ScanFrom(%q): %v", after, err)
				}
				want := stable
				if j, ok := index[after]; ok {
					want = max(stable-j-1, 0)
				}
				if seen != want && !t.Failed() {
					t.Fatalf("ScanFrom(%q) saw %d of the %d never-deleted keys after it", after, seen, want)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestShadowedPin: a pinned reader keeps answering from its generation
// across any number of swaps — where an unpinned View answers ErrClosed
// — and the retired generation is closed by the last release, not
// before and not never.
func TestShadowedPin(t *testing.T) {
	sh := NewShadowedMem()
	defer sh.Close()
	if err := sh.Current().Put(rec("http://pin.com/a", 1)); err != nil {
		t.Fatal(err)
	}
	gen0 := sh.current.coll.(*Mem)
	view, _ := sh.View()
	r1, g1, release1 := sh.Pin()
	r2, _, release2 := sh.Pin()
	for i := 0; i < 2; i++ {
		if err := sh.Shadow().Put(rec("http://pin.com/a", uint64(10+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Swap(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := view.Get("http://pin.com/a"); err != ErrClosed {
		t.Fatalf("unpinned view after swap: err=%v, want ErrClosed", err)
	}
	for _, r := range []Reader{r1, r2} {
		got, ok, err := r.Get("http://pin.com/a")
		if err != nil || !ok || got.Checksum != 1 || g1 != 0 {
			t.Fatalf("pinned read after two swaps: %+v ok=%v err=%v gen=%d, want generation 0's record", got, ok, err, g1)
		}
		if n := 0; r.ScanFrom("", func(PageRecord) bool { n++; return true }) != nil || n != 1 || r.Len() != 1 {
			t.Fatalf("pinned scan after swap saw %d records", n)
		}
	}
	closed := func() bool { _, _, err := gen0.Get("x"); return err == ErrClosed }
	release1()
	if closed() {
		t.Fatal("generation closed while a pin was still held")
	}
	release2()
	if !closed() {
		t.Fatal("retired generation not closed by the last release")
	}
	// A fresh pin is on the current generation.
	r, g, release := sh.Pin()
	defer release()
	if got, _, err := r.Get("http://pin.com/a"); err != nil || got.Checksum != 11 || g != 2 {
		t.Fatalf("fresh pin: %+v err=%v gen=%d, want generation 2", got, err, g)
	}
}

// TestShadowedPinAfterClose: pinning a closed pair is not a panic and
// not a leak — the reader answers ErrClosed and release is a no-op.
func TestShadowedPinAfterClose(t *testing.T) {
	sh := NewShadowedMem()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, release := sh.Pin()
	if _, _, err := r.Get("x"); err != ErrClosed {
		t.Fatalf("pinned read on a closed pair: %v, want ErrClosed", err)
	}
	release()
}
