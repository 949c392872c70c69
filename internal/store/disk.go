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
// buffer. PutBatch frames the whole batch (in 64 KiB writes for a large
// one) and indexes it only once it is written: nothing is buffered
// between calls. Replay at open sweeps a torn or corrupt tail back to
// the last CRC-valid frame and fails loudly on a read error (the
// seglog sweep rule).
type Disk struct {
	mu      sync.Mutex
	log     *seglog.Log
	index   map[string]seglog.Pos
	garbage int // superseded/tombstone frames

	sortedKeys // index's keys in order: URLs, URLsFrom, Scan, ScanFrom; closed

	val []byte       // PutBatch: the record value being framed
	pos []seglog.Pos // PutBatch: positions of the batch's frames, until written
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

// PutBatch implements Collection: all records are framed under one lock
// acquisition and written once (once per 64 KiB for a very large
// batch); the index learns of the batch only after the write succeeded.
// Compaction is evaluated once after the batch.
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
	defer func() { d.pos = d.pos[:0] }()
	for i := range recs {
		d.val = appendValue(d.val[:0], &recs[i])
		pos, err := d.log.Append(recs[i].URL, d.val)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		d.pos = append(d.pos, pos)
	}
	if err := d.log.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for i, pos := range d.pos {
		d.indexLocked(recs[i].URL, pos)
	}
	storePuts.Add(int64(len(recs)))
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

// read is Get without the point-read counter (the ordered scans read
// their records through it): one pread of the whole frame, outside the
// lock against a pinned segment.
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
	pin, err := d.log.Pin(pos)
	d.mu.Unlock()
	if err != nil {
		return PageRecord{}, false, fmt.Errorf("store: %w", err)
	}
	key, val, err := pin.Read(nil)
	if err == nil && string(key) != url {
		err = seglog.ErrCorrupt
	}
	if err != nil {
		return PageRecord{}, false, fmt.Errorf("store: %w", err)
	}
	rec, err := decodeValue(url, val)
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
	d.index, d.val, d.pos = nil, nil, nil
	if err := d.log.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
