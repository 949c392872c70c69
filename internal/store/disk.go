package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Disk is a log-structured on-disk Collection: records are appended to
// segment files with CRC-protected framing (layout in codec.go), an
// in-memory index maps URL to (segment, offset, frame length), deletes
// append tombstones, and a compactor rewrites live records when the
// garbage ratio grows. Opening a directory replays the segments to
// rebuild the index, so a crawl survives a restart — a property the
// paper's in-place incremental crawler needs, since it never gets a
// "start from scratch" moment.
//
// Concurrency: every segment keeps one shared read handle, and reads go
// through positioned ReadAt calls (pread) on it, so they never touch the
// appender's file offset. A reader pins its segment with a reference
// count before leaving the lock; compaction retires old segments by
// marking them, and the file is closed and unlinked only when the last
// pinned reader releases it — a Get in flight across a Compact always
// completes against the bytes it indexed. A Get is one pread of the
// whole frame, one CRC pass and a decode that slices the body out of the
// read buffer. Writes are framed into a reused buffer and reach the file
// in one write per call (per writeChunk of a large batch): nothing is
// buffered between calls, so there is nothing to flush.
//
// Crash tolerance: replay stops at the first invalid frame — torn OR
// corrupt — and truncates the segment back to the last CRC-valid frame
// (the same sweep the cluster WAL performs), so a crash that leaves
// full-length garbage on the tail delays nothing more than the frames
// that were never acknowledged.
type Disk struct {
	mu      sync.Mutex
	dir     string
	segID   int              // active segment, append-only
	segOff  int64            // size of the active segment
	segs    map[int]*segment // all live segments, the active one included
	index   map[string]diskPos
	garbage int // superseded/tombstone frames
	openFDs int // segments currently holding an open handle

	sortedKeys // index's keys in order: URLs, URLsFrom, Scan, ScanFrom; closed

	enc  []byte // frames encoded for the next write; empty between calls
	ends []int  // PutBatch: end of each frame within enc
	werr error  // sticky: a failed append leaves the tail untrustworthy

	// MaxSegmentBytes bounds a segment before rolling to a new one.
	maxSegmentBytes int64
	// maxOpenSegments caps the open read handles: cold segments beyond
	// it are closed and reopened on demand, so the store's descriptor
	// footprint stays O(cap) however large the collection grows.
	maxOpenSegments int
}

// diskPos locates one record frame: n is the whole frame's length, so a
// read is a single pread. 16 bytes: there is one per stored page.
type diskPos struct {
	off int64
	seg uint32
	n   uint32
}

// writeChunk bounds the encode buffer every open store retains: a batch
// larger than this reaches the file in several writes.
const writeChunk = 64 << 10

// segment is one segment file and its shared read handle. refs counts
// readers using the handle outside d.mu; a retired segment (replaced by
// compaction, or swept at Close) is closed — and, after compaction,
// unlinked — by whoever drops refs to zero. A cold segment's handle
// may be evicted (f == nil) and is reopened on demand; eviction never
// touches the active segment or one pinned by readers.
type segment struct {
	id      int
	f       *os.File // nil: evicted; reopened by the next acquire
	refs    int
	retired bool
	remove  bool // unlink once released (compacted away)
}

// OpenDisk opens (or creates) a disk collection in dir. A torn or
// corrupt tail left by a crash is truncated back to the last CRC-valid
// frame; it never fails the open.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		dir:             dir,
		segs:            make(map[int]*segment),
		index:           make(map[string]diskPos),
		maxSegmentBytes: 64 << 20,
		maxOpenSegments: 256,
	}
	d.sortedKeys = sortedKeys{
		mu:   &d.mu,
		live: func(key string) bool { _, ok := d.index[key]; return ok },
		get:  d.read,
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := d.replay(id); err != nil {
			d.closeSegsLocked()
			return nil, err
		}
	}
	nextID := 1
	if len(ids) > 0 {
		nextID = ids[len(ids)-1] + 1
	}
	if err := d.openSegment(nextID); err != nil {
		d.closeSegsLocked()
		return nil, err
	}
	return d, nil
}

// closeSegsLocked drops every segment handle (open-failure cleanup).
func (d *Disk) closeSegsLocked() {
	for id, s := range d.segs {
		if s.f != nil {
			s.f.Close()
			s.f = nil
			d.openFDs--
		}
		delete(d.segs, id)
	}
}

func segmentPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("segment-%06d.log", id))
}

func segmentIDs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, e := range entries {
		var id int
		if n, _ := fmt.Sscanf(e.Name(), "segment-%06d.log", &id); n == 1 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// openSegment opens the active append segment. The same handle doubles
// as the segment's shared read handle: ReadAt is positioned, so reads
// never disturb the append offset.
func (d *Disk) openSegment(id int) error {
	f, err := os.OpenFile(segmentPath(d.dir, id), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	d.segs[id] = &segment{id: id, f: f}
	d.openFDs++
	storeSegmentOpens.Inc()
	d.segID = id
	d.segOff = st.Size()
	d.evictColdLocked()
	return nil
}

// replay scans one segment, updating the index, and keeps the file open
// as the segment's read handle. The first invalid frame — a truncated
// final frame (torn write) or a full-length frame failing its CRC (a
// crash through garbage in the page cache) — ends the replay and the
// file is truncated back to the last valid frame, like the cluster WAL:
// in the crash case those frames were never acknowledged, so dropping
// them loses nothing a caller was promised. (Mid-file bit rot is
// indistinguishable from a crashed tail at read time and gets the same
// sweep — the WAL discipline trades the rest of that one segment for
// never refusing to open; later segments still replay.) A real read
// I/O error is different: the bytes may be fine, so the open fails
// loudly instead of truncating.
func (d *Disk) replay(id int) error {
	f, err := os.OpenFile(segmentPath(d.dir, id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var off int64 // end of the last valid frame
	var body []byte
	for {
		var key []byte
		var tomb bool
		key, tomb, body, err = readFrame(r, body)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !errors.Is(err, errTornFrame) && !errors.Is(err, errCorruptFrame) {
				f.Close()
				return fmt.Errorf("store: segment %d offset %d: %w", id, off, err)
			}
			// Torn or corrupt tail: sweep back to the last valid frame.
			if terr := f.Truncate(off); terr != nil {
				f.Close()
				return fmt.Errorf("store: segment %d: sweeping corrupt tail: %w", id, terr)
			}
			storeTornTails.Inc()
			break
		}
		storeReplayedFrames.Inc()
		n := frameHeader + len(body)
		if tomb {
			d.garbage++ // the tombstone itself
			if _, ok := d.index[string(key)]; ok {
				d.unindexLocked(string(key))
			}
		} else {
			d.indexLocked(string(key), diskPos{off: off, seg: uint32(id), n: uint32(n)})
		}
		off += int64(n)
	}
	d.segs[id] = &segment{id: id, f: f}
	d.openFDs++
	storeSegmentOpens.Inc()
	d.evictColdLocked()
	return nil
}

var (
	errTornFrame    = errors.New("store: torn frame")
	errCorruptFrame = errors.New("store: corrupt frame")
)

// readShort maps a short read during a frame: running out of bytes is
// a torn frame (sweepable), any other failure is a real I/O error that
// must fail the open rather than truncate data that may still be fine.
func readShort(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTornFrame
	}
	return fmt.Errorf("store: %w", err)
}

// readFrame reads the next frame of a replay into buf (grown as needed
// and returned for reuse). key aliases buf; the value is only checked,
// never decoded — the index needs where a record is, not what it says.
func readFrame(r *bufio.Reader, buf []byte) (key []byte, tomb bool, body []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, false, buf, io.EOF
		}
		return nil, false, buf, readShort(err)
	}
	keyLen := binary.LittleEndian.Uint32(hdr[4:8])
	valLen := binary.LittleEndian.Uint32(hdr[8:12])
	tomb = valLen == tombstoneLen
	if tomb {
		valLen = 0
	}
	if keyLen > 1<<20 || valLen > 1<<30 {
		return nil, false, buf, fmt.Errorf("%w: absurd length", errCorruptFrame)
	}
	n := int(keyLen) + int(valLen)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, false, buf, readShort(err)
	}
	if crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, buf) != binary.LittleEndian.Uint32(hdr[0:4]) {
		return nil, false, buf, fmt.Errorf("%w: checksum mismatch", errCorruptFrame)
	}
	return buf[:keyLen], tomb, buf, nil
}

// indexLocked points key at the record frame just written or replayed.
func (d *Disk) indexLocked(key string, pos diskPos) {
	n := len(d.index)
	d.index[key] = pos
	if len(d.index) == n {
		d.garbage++ // the superseded record
	} else {
		d.touch(key)
	}
}

// unindexLocked drops a live key whose tombstone was written or replayed.
func (d *Disk) unindexLocked(key string) {
	delete(d.index, key)
	d.touch(key)
	d.garbage++ // the superseded record
}

// writeLocked appends the frames encoded in d.enc to the active segment
// with one write. A failed or short write can leave a partial frame on
// the tail — the next open sweeps it — but every offset this handle
// would assign after it is off, and frames appended behind a torn one
// would be swept with it: the store refuses further writes. Everything
// already acknowledged stays readable.
func (d *Disk) writeLocked() error {
	defer d.resetEncLocked()
	if d.werr != nil {
		return d.werr
	}
	if _, err := d.segs[d.segID].f.Write(d.enc); err != nil {
		d.werr = fmt.Errorf("store: %w", err)
		return d.werr
	}
	d.segOff += int64(len(d.enc))
	return nil
}

// resetEncLocked empties the encode buffer: every writer starts from
// offset zero of it.
func (d *Disk) resetEncLocked() { d.enc, d.ends = d.enc[:0], d.ends[:0] }

// acquireLocked pins the segment against retirement, reopening an
// evicted handle on demand. Caller holds d.mu. A pinned segment's
// handle stays valid until release: eviction and retirement both skip
// segments with refs > 0.
func (d *Disk) acquireLocked(id int) (*segment, error) {
	s := d.segs[id]
	if s == nil {
		return nil, fmt.Errorf("store: index references missing segment %d", id)
	}
	if err := d.ensureOpenLocked(s); err != nil {
		return nil, err
	}
	// Pin before evicting: the pin protects the fresh handle from its
	// own eviction pass.
	s.refs++
	d.evictColdLocked()
	return s, nil
}

// ensureOpenLocked reopens an evicted segment handle. It never evicts
// — callers evict at points where the handle they need is protected
// (pinned, or the active segment).
func (d *Disk) ensureOpenLocked(s *segment) error {
	if s.f != nil {
		return nil
	}
	f, err := os.Open(segmentPath(d.dir, s.id))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.f = f
	d.openFDs++
	storeSegmentReopens.Inc()
	return nil
}

// evictColdLocked closes idle handles beyond the cap — never the
// active segment and never one a reader has pinned — so descriptor use
// stays bounded however many segments the collection spans. Map
// iteration order makes the eviction order arbitrary, which is fine: a
// wrongly evicted handle just reopens on its next acquire.
func (d *Disk) evictColdLocked() {
	if d.maxOpenSegments <= 0 {
		return
	}
	for id, s := range d.segs {
		if d.openFDs <= d.maxOpenSegments {
			return
		}
		if id == d.segID || s.f == nil || s.refs > 0 {
			continue
		}
		s.f.Close()
		s.f = nil
		d.openFDs--
		storeSegmentEvictions.Inc()
	}
}

// release drops a reader's pin; the last release of a retired segment
// closes the handle and, for compacted-away segments, unlinks the file.
func (d *Disk) release(s *segment) {
	d.mu.Lock()
	s.refs--
	var f *os.File
	remove := false
	if s.retired && s.refs == 0 && s.f != nil {
		f, s.f = s.f, nil
		d.openFDs--
		remove = s.remove
	}
	// A wide Scan can pin (and open) many segments at once; trim back
	// to the cap as the pins drop.
	d.evictColdLocked()
	d.mu.Unlock()
	if f != nil {
		f.Close()
		if remove {
			os.Remove(segmentPath(d.dir, s.id))
		}
	}
}

// retireLocked removes a segment from the live set. If no reader holds
// it, the handle is closed (and the file removed) immediately;
// otherwise the last reader's release finishes the job. Caller holds
// d.mu.
func (d *Disk) retireLocked(s *segment, remove bool) error {
	delete(d.segs, s.id)
	s.retired, s.remove = true, remove
	if s.refs > 0 {
		return nil
	}
	var err error
	if s.f != nil {
		err = s.f.Close()
		s.f = nil
		d.openFDs--
	}
	if remove {
		if rerr := os.Remove(segmentPath(d.dir, s.id)); err == nil {
			err = rerr
		}
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Put implements Collection.
func (d *Disk) Put(rec PageRecord) error {
	return d.PutBatch([]PageRecord{rec})
}

// PutBatch implements Collection: all records are framed under one lock
// acquisition into the store's reused encode buffer and written to the
// segment once (once per writeChunk for a very large batch). The index
// learns of a frame only after its write succeeded. Segment rolling and
// compaction are evaluated once after the batch, so the active segment
// may briefly overshoot its size bound by one batch.
func (d *Disk) PutBatch(recs []PageRecord) error {
	for i := range recs {
		if recs[i].URL == "" {
			return errors.New("store: empty URL")
		}
	}
	if len(recs) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	first := 0 // recs[first:i+1] are the frames in d.enc
	for i := range recs {
		d.enc = appendFrame(d.enc, recs[i].URL, &recs[i])
		d.ends = append(d.ends, len(d.enc))
		if len(d.enc) < writeChunk && i+1 < len(recs) {
			continue
		}
		base, ends := d.segOff, d.ends
		if err := d.writeLocked(); err != nil {
			return err
		}
		start := 0
		for j, end := range ends {
			d.indexLocked(recs[first+j].URL, diskPos{off: base + int64(start), seg: uint32(d.segID), n: uint32(end - start)})
			start = end
		}
		first = i + 1
	}
	storePuts.Add(int64(len(recs)))
	return d.maybeRollLocked()
}

// Get implements Collection.
func (d *Disk) Get(url string) (PageRecord, bool, error) {
	rec, ok, err := d.read(url)
	if ok {
		storeGets.Inc()
	}
	return rec, ok, err
}

// read is Get without the point-read counter (the ordered scans read
// their records through it): one pread of the whole frame, outside the
// lock against a pinned segment handle, so a concurrent Compact cannot
// pull the file out from under it.
func (d *Disk) read(url string) (PageRecord, bool, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return PageRecord{}, false, ErrClosed
	}
	pos, ok := d.index[url]
	if !ok {
		d.mu.Unlock()
		return PageRecord{}, false, nil
	}
	s, err := d.acquireLocked(int(pos.seg))
	d.mu.Unlock()
	if err != nil {
		return PageRecord{}, false, err
	}
	frame := make([]byte, pos.n)
	_, err = s.f.ReadAt(frame, pos.off)
	d.release(s)
	if err != nil {
		return PageRecord{}, false, fmt.Errorf("store: %w", err)
	}
	rec, err := decodeFrame(url, frame)
	return rec, err == nil, err
}

// Delete implements Collection.
func (d *Disk) Delete(url string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, ok := d.index[url]; !ok {
		return nil
	}
	d.enc = appendFrame(d.enc, url, nil)
	if err := d.writeLocked(); err != nil {
		return err
	}
	d.unindexLocked(url)
	d.garbage++ // the tombstone itself
	storeDeletes.Inc()
	return d.maybeRollLocked()
}

// maybeRollLocked starts a new segment when the active one is large, and
// compacts when garbage dominates.
func (d *Disk) maybeRollLocked() error {
	if d.segOff >= d.maxSegmentBytes {
		// The filled segment stays open as a read handle; only the
		// writer moves on.
		if err := d.openSegment(d.segID + 1); err != nil {
			return err
		}
		storeSegmentRolls.Inc()
	}
	if d.garbage > 4*(len(d.index)+1) {
		return d.compactLocked()
	}
	return nil
}

// compactLocked rewrites all live records into a fresh segment, in key
// order, and retires the old ones. Whole frames are copied raw — checked,
// not decoded. Old segments whose handles are pinned by in-flight
// readers stay readable until those readers release them; their files
// are unlinked at the last release.
func (d *Disk) compactLocked() error {
	defer d.resetEncLocked() // error returns leave frames behind
	old := make([]*segment, 0, len(d.segs))
	for _, s := range d.segs {
		old = append(old, s)
	}
	if err := d.openSegment(d.segID + 1); err != nil {
		return err
	}
	urls := d.from("")
	newIndex := make(map[string]diskPos, len(urls))
	for _, u := range urls {
		pos := d.index[u]
		src := d.segs[int(pos.seg)]
		if err := d.ensureOpenLocked(src); err != nil {
			return err
		}
		start := len(d.enc)
		d.enc = append(d.enc, make([]byte, pos.n)...)
		if _, err := src.f.ReadAt(d.enc[start:], pos.off); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if key, _, ok := checkFrame(d.enc[start:]); !ok || string(key) != u {
			return errCorruptIndex
		}
		newIndex[u] = diskPos{off: d.segOff + int64(start), seg: uint32(d.segID), n: pos.n}
		if len(d.enc) >= writeChunk {
			if err := d.writeLocked(); err != nil {
				return err
			}
		}
	}
	if err := d.writeLocked(); err != nil {
		return err
	}
	d.index = newIndex
	d.garbage = 0
	var firstErr error
	for _, s := range old {
		if err := d.retireLocked(s, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	storeCompactions.Inc()
	return firstErr
}

// Len implements Collection.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Compact forces a compaction pass.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.compactLocked()
}

// GarbageRatio reports garbage frames per live record, for tests.
func (d *Disk) GarbageRatio() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return float64(d.garbage) / float64(max(len(d.index), 1))
}

// Close implements Collection. Segments pinned by in-flight readers are
// closed by those readers' releases; everything else closes now.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	// A closed store answers ErrClosed (and Len 0, like Mem): drop what
	// grows with the collection, so a retired generation somebody still
	// holds a pointer to costs nothing.
	d.sortedKeys.close()
	d.index, d.enc = nil, nil
	var err error
	for _, s := range d.segs {
		if rerr := d.retireLocked(s, false); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}
