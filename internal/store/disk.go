package store

import (
	"errors"
	"fmt"
	"sync"

	"webevolve/internal/seglog"
)

// Disk is a log-structured on-disk Collection: records are appended to
// a segment log (internal/seglog: CRC-framed segment files, the record
// value layout in codec.go), an in-memory index maps URL to the frame's
// position, deletes append tombstones, and a compaction rewrites the
// live records when garbage dominates. Opening a directory replays the
// segments to rebuild the index, so a crawl survives a restart — a
// property the paper's in-place incremental crawler needs, since it
// never gets a "start from scratch" moment.
//
// A Get pins its frame's segment under the store's lock and reads it
// with one pread outside it, so a concurrent Compact never pulls the
// file out from under it; the decode slices the body out of the read
// buffer, and GetValue skips the decode. PutBatch encodes each record
// and PutValues takes the encoded bytes as they come; both frame the
// whole batch (in 64 KiB writes for a large one) through one routine
// and index it only once it is written: nothing is buffered between
// calls. Replay at open sweeps a torn or corrupt tail back to the last
// CRC-valid frame and fails loudly on a read error (the seglog sweep
// rule).
type Disk struct {
	mu      sync.Mutex
	log     *seglog.Log
	index   map[string]seglog.Pos
	garbage int // superseded/tombstone frames

	sortedKeys // index's keys in order: URLs, URLsFrom, Scan, ScanFrom; closed

	val     []byte         // PutBatch: the record value being framed
	pending []pendingFrame // a batch's frames, until written and indexed
}

// pendingFrame is a frame appended to the log and not yet indexed.
type pendingFrame struct {
	url string
	pos seglog.Pos
}

// OpenDisk opens (or creates) a disk collection in dir. A torn or
// corrupt tail left by a crash is truncated back to the last CRC-valid
// frame; it never fails the open.
func OpenDisk(dir string) (*Disk, error) {
	return openDisk(dir, seglog.DefaultSegmentBytes, seglog.DefaultOpenSegments)
}

// openDisk is OpenDisk with the log's segment size bound and handle cap.
func openDisk(dir string, segBytes int64, maxOpen int) (*Disk, error) {
	d := &Disk{index: make(map[string]seglog.Pos)}
	d.sortedKeys = sortedKeys{
		mu:   &d.mu,
		live: func(key string) bool { _, ok := d.index[key]; return ok },
		get:  d.read,
	}
	log, err := seglog.Open(dir, segBytes, maxOpen, diskLogMetrics, d.replay)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d.log = log
	return d, nil
}

// replay indexes one frame at open. The value is not decoded — the
// index needs where a record is, not what it says.
func (d *Disk) replay(pos seglog.Pos, key, _ []byte, tomb bool) error {
	storeReplayedFrames.Inc()
	if !tomb {
		d.indexLocked(string(key), pos)
		return nil
	}
	d.garbage++ // the tombstone itself
	if _, ok := d.index[string(key)]; ok {
		d.unindexLocked(string(key))
	}
	return nil
}

// indexLocked points key at the record frame just written or replayed.
func (d *Disk) indexLocked(key string, pos seglog.Pos) {
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

// Put implements Collection.
func (d *Disk) Put(rec PageRecord) error {
	return d.PutBatch([]PageRecord{rec})
}

// PutBatch implements Collection: each record is encoded into one
// reused buffer and framed as PutValues frames its values.
func (d *Disk) PutBatch(recs []PageRecord) error {
	for i := range recs {
		if err := checkRecord(&recs[i]); err != nil {
			return err
		}
	}
	return d.put(len(recs), func(i int) Value {
		d.val = AppendValue(d.val[:0], &recs[i])
		return Value{URL: recs[i].URL, Bytes: d.val}
	})
}

// PutValues is PutBatch for encoded records: every value is checked
// before any is applied, then appended verbatim. None of vals' bytes
// are kept.
func (d *Disk) PutValues(vals []Value) error {
	for _, v := range vals {
		if v.URL == "" {
			return errors.New("store: empty URL")
		}
		if err := checkValue(v.URL, v.Bytes); err != nil {
			return err
		}
	}
	return d.put(len(vals), func(i int) Value { return vals[i] })
}

// put takes the lock and frames n values — value(i) is the i-th,
// its bytes needed only until the next call — and writes them once
// (once per 64 KiB for a very large batch). The index learns of the
// batch only after the write succeeded; compaction is evaluated once
// after it.
func (d *Disk) put(n int, value func(i int) Value) error {
	if n == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	defer func() { d.pending = d.pending[:0] }()
	for i := range n {
		v := value(i)
		pos, err := d.log.Append(v.URL, v.Bytes)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		d.pending = append(d.pending, pendingFrame{url: v.URL, pos: pos})
	}
	if err := d.log.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, p := range d.pending {
		d.indexLocked(p.url, p.pos)
	}
	storePuts.Add(int64(n))
	return d.maybeCompactLocked()
}

// Get implements Collection.
func (d *Disk) Get(url string) (PageRecord, bool, error) {
	rec, ok, err := d.read(url)
	if ok {
		storeGets.Inc()
	}
	return rec, ok, err
}

// GetValue is Get returning the record's value undecoded, as the pread
// left it; the bytes are the caller's.
func (d *Disk) GetValue(url string) ([]byte, bool, error) {
	val, ok, err := d.readValue(url)
	if ok {
		storeGets.Inc()
	}
	return val, ok, err
}

// read is Get without the point-read counter (the ordered scans read
// their records through it).
func (d *Disk) read(url string) (PageRecord, bool, error) {
	val, ok, err := d.readValue(url)
	if !ok {
		return PageRecord{}, false, err
	}
	rec, err := DecodeValue(url, val)
	return rec, err == nil, err
}

// readValue reads url's value with one pread of the whole frame into a
// new buffer, outside the lock against a pinned segment.
func (d *Disk) readValue(url string) ([]byte, bool, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, false, ErrClosed
	}
	pos, ok := d.index[url]
	if !ok {
		d.mu.Unlock()
		return nil, false, nil
	}
	pin, err := d.log.Pin(pos)
	d.mu.Unlock()
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	key, val, err := pin.Read(nil)
	if err == nil && string(key) != url {
		err = seglog.ErrCorrupt
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	return val, true, nil
}

// ScanValuesFrom is ScanFrom over undecoded values, with its key set
// and guarantees.
func (d *Disk) ScanValuesFrom(after string, fn func(url string, val []byte) bool) error {
	return scanFrom(&d.sortedKeys, after, d.readValue, fn)
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
	if _, err := d.log.Delete(url); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := d.log.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.unindexLocked(url)
	d.garbage++ // the tombstone itself
	storeDeletes.Inc()
	return d.maybeCompactLocked()
}

// maybeCompactLocked compacts when garbage dominates.
func (d *Disk) maybeCompactLocked() error {
	if d.garbage > 4*(len(d.index)+1) {
		return d.compactLocked()
	}
	return nil
}

// compactLocked rewrites all live records into a fresh segment, in key
// order, and retires the old ones; segments pinned by in-flight readers
// stay readable until those readers release them.
func (d *Disk) compactLocked() error {
	urls := d.from("")
	live := make([]seglog.Pos, len(urls))
	for i, u := range urls {
		live[i] = d.index[u]
	}
	moved, err := d.log.Compact(live)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.index = make(map[string]seglog.Pos, len(urls))
	for i, u := range urls {
		d.index[u] = moved[i]
	}
	d.garbage = 0
	storeCompactions.Inc()
	return nil
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
	d.index, d.val, d.pending = nil, nil, nil
	if err := d.log.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
