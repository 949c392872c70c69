package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fixturePage is the record the parent-collection fixture was written
// with for page i.
func fixturePage(i int, sum uint64) PageRecord {
	return PageRecord{
		URL:        fmt.Sprintf("http://fixture.example/p%d", i),
		Checksum:   sum,
		FetchedAt:  float64(i) + 0.5,
		Version:    i,
		Importance: 1.0 / float64(i+1),
		Links:      []string{fmt.Sprintf("http://fixture.example/p%d", i+1), "http://other.example/"},
		Content:    []byte(fmt.Sprintf("<html>page %d body %0*d</html>", i, 60, i)),
	}
}

// copyFixture copies testdata/<name> into a fresh directory: opening
// sweeps, and the committed bytes must stay as written.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", name)
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func sizeOf(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestDiskOpensParentCollection opens a directory written by the build
// before the segment log was shared: p0..p2 in one batch (segment 1,
// which then rolled), then an overwrite of p1, a tombstone for p2 and
// p3 in segment 2, and a torn p4 frame on its tail. The open must
// return exactly what that build's open returned — p0, p1's overwrite,
// p3 — and sweep segment 2 back to the same 431 bytes.
func TestDiskOpensParentCollection(t *testing.T) {
	dir := copyFixture(t, "parent-collection")
	if got := sizeOf(t, segmentPath(dir, 2)); got != 621 {
		t.Fatalf("fixture segment 2 is %d bytes, want 621 (torn tail included)", got)
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []PageRecord{fixturePage(0, 10), fixturePage(1, 111), fixturePage(3, 13)}
	var got []PageRecord
	if err := d.Scan(func(r PageRecord) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("opened %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for id, size := range map[int]int64{1: 591, 2: 431, 3: 0} {
		if got := sizeOf(t, segmentPath(dir, id)); got != size {
			t.Errorf("segment %d: %d bytes after the open, want %d", id, got, size)
		}
	}
}

// TestDiskFrameGoldenBytes pins one record frame as the store writes it:
// tag 0x02, the first link front-coded against the URL (7 shared bytes,
// suffix "a/") and the second against the first (none shared, "b").
// TestDecodePlainFixture keeps the tag-0x01 value this frame held
// before.
func TestDiskFrameGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := PageRecord{URL: "http://g.example/", Checksum: 7, FetchedAt: 1.5, Version: -2,
		Importance: 0.25, Links: []string{"http://a/", "b"}, Content: []byte("hi")}
	if err := d.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	const want = "56ff9e781100000024000000687474703a2f2f672e6578616d706c652f" +
		"020700000000000000000000000000f83f000000000000d03f030207020001612f626869"
	if fmt.Sprintf("%x", got) != want {
		t.Fatalf("frame bytes\n got %x\nwant %s", got, want)
	}
}

// TestDiskReadErrorFailsOpen: a segment that cannot be read (here a
// directory in its place) fails the open instead of being swept, and
// the readable segment before it is left as it was.
func TestDiskReadErrorFailsOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Put(rec(fmt.Sprintf("http://s.com/p%d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	before := sizeOf(t, segmentPath(dir, 1))
	if err := os.Mkdir(segmentPath(dir, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	if d, err := OpenDisk(dir); err == nil {
		d.Close()
		t.Fatal("open over an unreadable segment succeeded")
	}
	if got := sizeOf(t, segmentPath(dir, 1)); got != before {
		t.Fatalf("segment 1: %d bytes after the failed open, was %d", got, before)
	}
	if _, err := os.Stat(segmentPath(dir, 3)); !os.IsNotExist(err) {
		t.Fatalf("failed open created an active segment: %v", err)
	}
}
