package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"webevolve/internal/obs"
)

// frame is one replayed frame, copied out of the replay buffer.
type frame struct {
	Pos  Pos
	Key  string
	Val  string
	Tomb bool
}

// collect is a ReplayFunc that records every frame into *out.
func collect(out *[]frame) ReplayFunc {
	return func(pos Pos, key, val []byte, tomb bool) error {
		*out = append(*out, frame{pos, string(key), string(val), tomb})
		return nil
	}
}

func open(t testing.TB, dir string, segBytes int64, maxOpen int, fn ReplayFunc) *Log {
	t.Helper()
	if fn == nil {
		fn = func(Pos, []byte, []byte, bool) error { return nil }
	}
	l, err := Open(dir, segBytes, maxOpen, Metrics{}, fn)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func mustAppend(t testing.TB, l *Log, key, val string) Pos {
	t.Helper()
	pos, err := l.Append(key, []byte(val))
	if err != nil {
		t.Fatal(err)
	}
	return pos
}

// read pins pos and reads it.
func read(l *Log, pos Pos, buf []byte) (key, val []byte, err error) {
	p, err := l.Pin(pos)
	if err != nil {
		return nil, nil, err
	}
	return p.Read(buf)
}

func mustRead(t testing.TB, l *Log, pos Pos) (string, string) {
	t.Helper()
	key, val, err := read(l, pos, nil)
	if err != nil {
		t.Fatalf("read %+v: %v", pos, err)
	}
	return string(key), string(val)
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestFrameGoldenBytes pins the frame layout: the bytes of one record
// and one tombstone.
func TestFrameGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		val  []byte
		tomb bool
		hex  string
	}{
		{[]byte("v1"), false, "8e85af5101000000020000006b7631"},
		{nil, true, "dfb0cf1201000000ffffffff6b"},
	} {
		if got := fmt.Sprintf("%x", appendFrame(nil, "k", c.val, c.tomb)); got != c.hex {
			t.Errorf("frame(k, %q, tomb=%v) = %s, want %s", c.val, c.tomb, got, c.hex)
		}
	}
}

// TestAppendReadReopen appends records and tombstones, reads them back
// from the buffer and from the file, and replays the same frames at the
// same positions after a reopen.
func TestAppendReadReopen(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, DefaultSegmentBytes, DefaultOpenSegments, nil)
	var want []frame
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("k%02d", i%7), fmt.Sprintf("value %d", i)
		pos := mustAppend(t, l, k, v)
		want = append(want, frame{pos, k, v, false})
		if i%5 == 4 {
			pos, err := l.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, frame{pos, k, "", true})
		}
	}
	// Reading a buffered frame writes the buffer out first.
	last := want[len(want)-2]
	if k, v := mustRead(t, l, last.Pos); k != last.Key || v != last.Val {
		t.Fatalf("buffered read: %s=%s, want %s=%s", k, v, last.Key, last.Val)
	}
	if _, _, err := read(l, want[5].Pos, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of a tombstone: %v, want ErrCorrupt", err)
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, filepath.Join(dir, segmentName(1))); got != size {
		t.Fatalf("segment holds %d bytes, Size said %d", got, size)
	}
	var got []frame
	l = open(t, dir, DefaultSegmentBytes, DefaultOpenSegments, collect(&got))
	defer l.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay:\n got %+v\nwant %+v", got, want)
	}
	// The reopened log appends to a fresh segment.
	if pos := mustAppend(t, l, "new", "x"); pos.Seg != 2 || pos.Off != 0 {
		t.Fatalf("first append after reopen at %+v, want segment 2 offset 0", pos)
	}
}

// writeFrames fills a fresh log with n records in one segment, closes
// it and returns the directory and the frame boundaries.
func writeFrames(t testing.TB, n int) (dir string, bounds []int64) {
	t.Helper()
	dir = t.TempDir()
	l := open(t, dir, DefaultSegmentBytes, DefaultOpenSegments, nil)
	bounds = []int64{0}
	for i := 0; i < n; i++ {
		pos := mustAppend(t, l, fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i*i))
		bounds = append(bounds, pos.Off+int64(pos.N))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, bounds
}

// TestTornOrFlippedLastFrame cuts the last frame at every offset, and
// flips every byte of it: the open keeps exactly the frames before it
// and truncates the segment to their end.
func TestTornOrFlippedLastFrame(t *testing.T) {
	const n = 4
	src, bounds := writeFrames(t, n)
	full, err := os.ReadFile(filepath.Join(src, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	keep := bounds[n-1]
	check := func(what string, data []byte) {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []frame
		l, err := Open(dir, DefaultSegmentBytes, DefaultOpenSegments, Metrics{}, collect(&got))
		if err != nil {
			t.Fatalf("%s: open must sweep, not fail: %v", what, err)
		}
		l.Close()
		if len(got) != n-1 {
			t.Fatalf("%s: replayed %d frames, want %d", what, len(got), n-1)
		}
		if sz := fileSize(t, path); sz != keep {
			t.Fatalf("%s: segment at %d bytes, want %d", what, sz, keep)
		}
	}
	for cut := keep; cut < int64(len(full)); cut++ {
		check(fmt.Sprintf("cut at %d", cut), full[:cut])
	}
	for off := keep; off < int64(len(full)); off++ {
		flipped := bytes.Clone(full)
		flipped[off] ^= 0x5a
		check(fmt.Sprintf("flip at %d", off), flipped)
	}
}

// TestReadChecksFrame: a read of an indexed frame with any byte flipped
// on disk, or at a position whose length is off, is ErrCorrupt — the
// CRC, not the caller's decoder, refuses damage.
func TestReadChecksFrame(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, DefaultSegmentBytes, DefaultOpenSegments, nil)
	defer l.Close()
	mustAppend(t, l, "before", "x")
	pos := mustAppend(t, l, "key", "a value")
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(l.path(pos.Seg), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := make([]byte, pos.N)
	if _, err := f.ReadAt(frame, pos.Off); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		if _, err := f.WriteAt([]byte{frame[i] ^ 0x10}, pos.Off+int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := read(l, pos, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: read err %v, want ErrCorrupt", i, err)
		}
		if _, err := f.WriteAt(frame[i:i+1], pos.Off+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []uint32{pos.N - 1, HeaderLen - 1} {
		if _, _, err := read(l, Pos{Off: pos.Off, Seg: pos.Seg, N: n}, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read of %d of %d bytes: %v, want ErrCorrupt", n, pos.N, err)
		}
	}
	if k, v := mustRead(t, l, pos); k != "key" || v != "a value" {
		t.Fatalf("restored frame reads %s=%s", k, v)
	}
}

// TestRefusedFrameFailsOpenUntouched: an intact frame the replay
// function refuses is somebody's data, not a tail to sweep.
func TestRefusedFrameFailsOpenUntouched(t *testing.T) {
	dir, _ := writeFrames(t, 5)
	refuse := errors.New("not mine")
	err := failsUntouched(t, dir, func(_ Pos, key, _ []byte, _ bool) error {
		if string(key) == "key-3" {
			return refuse
		}
		return nil
	})
	if !errors.Is(err, refuse) {
		t.Fatalf("open over a refused frame: %v, want the refusal", err)
	}
}

// failsUntouched opens dir expecting failure, and checks that segment
// 1 kept its bytes and no segment was created.
func failsUntouched(t *testing.T, dir string, fn ReplayFunc) error {
	t.Helper()
	path := filepath.Join(dir, segmentName(1))
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := segmentIDs(dir)
	if _, err = Open(dir, DefaultSegmentBytes, DefaultOpenSegments, Metrics{}, fn); err == nil {
		t.Fatal("open succeeded")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatalf("failed open changed the segment: %d bytes, was %d", len(after), len(before))
	}
	if now, _ := segmentIDs(dir); !reflect.DeepEqual(now, ids) {
		t.Fatalf("failed open left segments %v, was %v", now, ids)
	}
	return err
}

// failAfter reads r, then fails with err instead of io.EOF.
type failAfter struct {
	r   io.Reader
	err error
}

func (f *failAfter) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

// TestReadErrorFailsOpenUntouched: a read error is not a torn tail. The
// replay of valid frames followed by a failing read reports the error
// and asks for no sweep; through Open, a segment that cannot be read
// (a directory in its place) fails the open, and the valid segment
// before it is left as it was.
func TestReadErrorFailsOpenUntouched(t *testing.T) {
	dir, bounds := writeFrames(t, 3)
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eio := errors.New("input/output error")
	var got []frame
	end, torn, err := replay(&failAfter{bytes.NewReader(data), eio}, 1, int64(len(data))+100, collect(&got))
	if !errors.Is(err, eio) || torn {
		t.Fatalf("replay over a failing read: err=%v torn=%v, want the read error and no sweep", err, torn)
	}
	if len(got) != 3 || end != bounds[3] {
		t.Fatalf("replayed %d frames to offset %d, want 3 to %d", len(got), end, bounds[3])
	}

	if err := os.Mkdir(filepath.Join(dir, segmentName(2)), 0o755); err != nil {
		t.Fatal(err)
	}
	failsUntouched(t, dir, collect(&got))
}

// TestRollBetweenWrites: a segment past its bound rolls at the next
// append once the buffer is written out, never under buffered frames.
func TestRollBetweenWrites(t *testing.T) {
	dir := t.TempDir()
	rolls := obs.NewRegistry().Counter("rolls", "")
	l, err := Open(dir, 100, DefaultOpenSegments, Metrics{Rolls: rolls}, func(Pos, []byte, []byte, bool) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var pos []Pos
	for i := 0; i < 10; i++ {
		pos = append(pos, mustAppend(t, l, fmt.Sprintf("k%d", i), "0123456789012345678901234567890123456789"))
	}
	if pos[9].Seg != 1 || rolls.Value() != 0 {
		t.Fatalf("buffered appends rolled: last at %+v, %d rolls", pos[9], rolls.Value())
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	p := mustAppend(t, l, "after", "x")
	if p.Seg != 2 || p.Off != 0 || rolls.Value() != 1 {
		t.Fatalf("append after a full flush at %+v, %d rolls; want segment 2 offset 0, 1 roll", p, rolls.Value())
	}
	for i, q := range append(pos, p) {
		if k, _ := mustRead(t, l, q); (i < 10 && k != fmt.Sprintf("k%d", i)) || (i == 10 && k != "after") {
			t.Fatalf("read %d across the roll: key %s", i, k)
		}
	}
	l.Close()
}

// TestCompactUnderPinnedReader compacts while a reader holds a pin on
// an old segment: the pinned read still returns its frame, the old
// file goes away at the release, and the compacted positions read and
// replay.
func TestCompactUnderPinnedReader(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 256, DefaultOpenSegments, nil)
	latest := map[string]Pos{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%02d", i%12)
		latest[k] = mustAppend(t, l, k, fmt.Sprintf("v%03d", i))
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	first := latest["k00"]
	pin, err := l.Pin(first)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(latest))
	live := make([]Pos, 0, len(latest))
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("k%02d", i)
		keys = append(keys, k)
		live = append(live, latest[k])
	}
	moved, err := l.Compact(live)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(l.path(first.Seg)); err != nil {
		t.Fatalf("pinned segment gone before its release: %v", err)
	}
	key, val, err := pin.Read(nil)
	if err != nil || string(key) != "k00" || string(val) != "v048" {
		t.Fatalf("pinned read across Compact: %s=%s err=%v", key, val, err)
	}
	if _, err := os.Stat(l.path(first.Seg)); !os.IsNotExist(err) {
		t.Fatalf("compacted-away segment survives its last release: %v", err)
	}
	for i, p := range moved {
		if k, _ := mustRead(t, l, p); k != keys[i] {
			t.Fatalf("moved[%d] reads key %s, want %s", i, k, keys[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if ids, _ := segmentIDs(dir); len(ids) != 1 {
		t.Fatalf("segments after compaction: %v, want one", ids)
	}
	var got []frame
	l = open(t, dir, 256, DefaultOpenSegments, collect(&got))
	defer l.Close()
	if len(got) != len(keys) {
		t.Fatalf("compacted log replays %d frames, want %d", len(got), len(keys))
	}
	for i, f := range got {
		if f.Key != keys[i] || f.Pos != moved[i] {
			t.Fatalf("replayed frame %d: %+v, want key %s at %+v", i, f, keys[i], moved[i])
		}
	}
}

// TestHandleCap caps open handles far below the segment count: reads
// reopen evicted segments, the count returns under the cap at rest, and
// the active segment is never the one evicted.
func TestHandleCap(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := Metrics{Reopens: reg.Counter("reopens", ""), Evictions: reg.Counter("evictions", "")}
	l, err := Open(dir, 64, 2, m, func(Pos, []byte, []byte, bool) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var pos []Pos
	for i := 0; i < 40; i++ {
		pos = append(pos, mustAppend(t, l, fmt.Sprintf("k%02d", i), fmt.Sprintf("%060d", i)))
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if ids, _ := segmentIDs(dir); len(ids) < 20 {
		t.Fatalf("want many segments, got %d", len(ids))
	}
	for round := 0; round < 2; round++ {
		for i, p := range pos {
			if k, _ := mustRead(t, l, p); k != fmt.Sprintf("k%02d", i) {
				t.Fatalf("read %d: key %s", i, k)
			}
			if h := l.handles; h > 2 {
				t.Fatalf("%d handles open at rest, cap 2", h)
			}
		}
	}
	if m.Reopens.Value() == 0 || m.Evictions.Value() == 0 {
		t.Fatalf("reopens %d, evictions %d: the cap never bit", m.Reopens.Value(), m.Evictions.Value())
	}
	if l.segs[l.active.id].f == nil {
		t.Fatal("active segment evicted")
	}
	l.Close()
}

// TestConcurrentReadsAcrossCompact runs readers beside a writer that
// appends, flushes and compacts over small segments and a tight handle
// cap. Readers pin under the index lock, as callers do, and read outside
// it: every read must return the value its position was indexed with.
func TestConcurrentReadsAcrossCompact(t *testing.T) {
	l := open(t, t.TempDir(), 512, 3, nil)
	defer l.Close()
	const keys = 32
	var mu sync.Mutex
	index := make(map[string]Pos, keys)
	val := func(k string, v int) string { return fmt.Sprintf("%s=%06d", k, v) }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%02d", (i*7+r)%keys)
				mu.Lock()
				pos, ok := index[k]
				var pin Pin
				var err error
				if ok {
					pin, err = l.Pin(pos)
				}
				mu.Unlock()
				if !ok {
					continue
				}
				if err != nil {
					t.Errorf("pin %s: %v", k, err)
					return
				}
				key, v, err := pin.Read(nil)
				if err != nil || string(key) != k || !bytes.HasPrefix(v, []byte(k+"=")) {
					t.Errorf("read %s at %+v: %s=%s, %v", k, pos, key, v, err)
					return
				}
			}
		}(r)
	}
	for v := 0; v < 2000; v++ {
		k := fmt.Sprintf("k%02d", v%keys)
		mu.Lock()
		pos, err := l.Append(k, []byte(val(k, v)))
		if err == nil && v%3 == 0 {
			err = l.Flush()
		}
		if err == nil {
			index[k] = pos
		}
		if err == nil && v%250 == 249 {
			live := make([]string, 0, keys)
			for k := range index {
				live = append(live, k)
			}
			sort.Strings(live)
			ps := make([]Pos, len(live))
			for i, k := range live {
				ps[i] = index[k]
			}
			var moved []Pos
			if moved, err = l.Compact(ps); err == nil {
				for i, k := range live {
					index[k] = moved[i]
				}
			}
		}
		mu.Unlock()
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStickyWriteError: once a write fails, every later append and
// flush reports it, and nothing is appended behind the broken tail.
func TestStickyWriteError(t *testing.T) {
	l := open(t, t.TempDir(), DefaultSegmentBytes, DefaultOpenSegments, nil)
	mustAppend(t, l, "a", "1")
	l.active.f.Close() // the next write fails
	if err := l.Flush(); err == nil {
		t.Fatal("flush to a closed file succeeded")
	}
	if _, err := l.Append("b", []byte("2")); err == nil {
		t.Fatal("append after a failed write succeeded")
	}
	if err := l.Flush(); err == nil {
		t.Fatal("the write error did not stick")
	}
}

// FuzzReplay opens a segment of valid frames followed by arbitrary
// bytes: the open never fails or panics, replays exactly the longest
// prefix of intact frames (as an independent parser reads it), and
// truncates the segment to that prefix's end.
func FuzzReplay(f *testing.F) {
	var valid []byte
	for i := 0; i < 3; i++ {
		valid = appendFrame(valid, fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i)), i == 1)
	}
	f.Add(valid, []byte{})
	f.Add(valid, []byte{1, 2, 3})
	f.Add(valid, appendFrame(nil, "tail", []byte("intact"), false))
	f.Add(valid[:20], valid[20:])
	f.Add([]byte{}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, head, tail []byte) {
		data := append(bytes.Clone(head), tail...)
		want, end := parseFrames(data)
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []frame
		l, err := Open(dir, DefaultSegmentBytes, DefaultOpenSegments, Metrics{}, collect(&got))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		l.Close()
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("replayed %+v, want %+v", got, want)
		}
		if sz := fileSize(t, path); sz != end {
			t.Fatalf("segment truncated to %d, want %d", sz, end)
		}
	})
}

// parseFrames is the fuzz oracle: the intact frames at the front of
// data and where they end, read independently of replay.
func parseFrames(data []byte) (frames []frame, end int64) {
	for {
		rest := data[end:]
		if len(rest) < HeaderLen {
			return frames, end
		}
		keyLen := uint64(binary.LittleEndian.Uint32(rest[4:]))
		valLen := uint64(binary.LittleEndian.Uint32(rest[8:]))
		tomb := valLen == uint64(tombstone)
		if tomb {
			valLen = 0
		}
		n := HeaderLen + keyLen + valLen
		if n > uint64(len(rest)) || crc32.ChecksumIEEE(rest[4:n]) != binary.LittleEndian.Uint32(rest) {
			return frames, end
		}
		key := string(rest[HeaderLen : HeaderLen+keyLen])
		frames = append(frames, frame{Pos{Off: end, Seg: 1, N: uint32(n)}, key, string(rest[HeaderLen+keyLen : n]), tomb})
		end += int64(n)
	}
}
