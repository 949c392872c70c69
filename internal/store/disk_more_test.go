package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"webevolve/internal/seglog"
)

// TestDiskSegmentRolling forces segment rotation by shrinking the
// segment cap and verifies reads span multiple segments and reopening
// replays them all.
func TestDiskSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	d, err := openDisk(dir, 2048, seglog.DefaultOpenSegments) // frequent rolls
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 512)
	const n = 40
	for i := 0; i < n; i++ {
		rec := PageRecord{
			URL:     fmt.Sprintf("http://s.com/p%03d", i),
			Content: []byte(big),
		}
		if err := d.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 3 {
		t.Fatalf("expected multiple segments, got %v", ids)
	}
	// Random access across segments.
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://s.com/p%03d", i)
		got, ok, err := d.Get(url)
		if err != nil || !ok || len(got.Content) != 512 {
			t.Fatalf("read %s across segments: ok=%v err=%v", url, ok, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != n {
		t.Fatalf("replayed %d records across segments, want %d", d2.Len(), n)
	}
}

// TestDiskCorruptMiddleFrameFailsLoudly flips a byte inside the first
// frame: reopening must NOT silently succeed with the corrupt record
// counted as live.
func TestDiskCorruptMiddleFrameFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(PageRecord{URL: "http://a.com/", Checksum: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(PageRecord{URL: "http://b.com/", Checksum: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of the first record (offset inside value).
	seg := segmentPath(dir, 1)
	data, err := readFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xFF
	if err := writeFile(seg, data); err != nil {
		t.Fatal(err)
	}
	// The CRC catches it; replay stops at the corrupt frame (treating the
	// rest as lost) rather than serving garbage.
	d2, err := OpenDisk(dir)
	if err != nil {
		// Also acceptable: a hard error. Either way, no garbage reads.
		return
	}
	defer d2.Close()
	if _, ok, _ := d2.Get("http://a.com/"); ok {
		rec, _, _ := d2.Get("http://a.com/")
		if rec.Checksum != 1 {
			t.Fatal("corrupt record served with wrong content")
		}
	}
}

// TestDiskTruncatedSegmentRecovery simulates a crash that tears the
// active segment mid-frame: for every record boundary and several
// mid-frame cuts, truncating the segment and reopening must rebuild
// the index to exactly the records whose frames are CRC-valid in the
// surviving prefix — and the store must keep accepting writes.
func TestDiskTruncatedSegmentRecovery(t *testing.T) {
	src := t.TempDir()
	d, err := OpenDisk(src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	urls := make([]string, n)
	// bounds[i] is the segment size after record i: the frame boundaries.
	bounds := make([]int64, n)
	for i := 0; i < n; i++ {
		urls[i] = fmt.Sprintf("http://s.com/p%03d", i)
		if err := d.Put(PageRecord{URL: urls[i], Checksum: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(segmentPath(src, 1))
		if err != nil {
			t.Fatal(err)
		}
		bounds[i] = st.Size()
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := readFile(segmentPath(src, 1))
	if err != nil {
		t.Fatal(err)
	}

	check := func(cut int64, survivors int) {
		t.Helper()
		dir := t.TempDir()
		if err := writeFile(segmentPath(dir, 1), full[:cut]); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDisk(dir)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		defer d2.Close()
		if d2.Len() != survivors {
			t.Fatalf("cut=%d: rebuilt %d records, want %d", cut, d2.Len(), survivors)
		}
		for i := 0; i < survivors; i++ {
			rec, ok, err := d2.Get(urls[i])
			if err != nil || !ok || rec.Checksum != uint64(i+1) {
				t.Fatalf("cut=%d: record %d: %+v ok=%v err=%v", cut, i, rec, ok, err)
			}
		}
		for i := survivors; i < n; i++ {
			if _, ok, _ := d2.Get(urls[i]); ok {
				t.Fatalf("cut=%d: torn record %d resurrected", cut, i)
			}
		}
		// Recovery must leave a writable store behind.
		if err := d2.Put(PageRecord{URL: "http://s.com/after", Checksum: 99}); err != nil {
			t.Fatalf("cut=%d: post-recovery write: %v", cut, err)
		}
		if got, ok, _ := d2.Get("http://s.com/after"); !ok || got.Checksum != 99 {
			t.Fatalf("cut=%d: post-recovery record lost", cut)
		}
	}

	prev := int64(0)
	for i, b := range bounds {
		check(b, i+1) // clean cut at the frame boundary
		if b-prev > 2 {
			check(prev+(b-prev)/2, i) // cut mid-frame: record i is torn
			check(b-1, i)             // one byte short of the full frame
		}
		if prev+4 < b {
			check(prev+4, i) // cut inside the 12-byte header
		}
		prev = b
	}
}

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

func segmentPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("segment-%06d.log", id))
}

// segmentIDs lists the segment numbers in dir, in order.
func segmentIDs(dir string) ([]int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "segment-*.log"))
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(paths))
	for _, p := range paths {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(p), "segment-%d.log", &id); err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
