// Package seglog is an append-only log of CRC-framed key/value frames
// kept in numbered segment files under one directory: the storage under
// the disk collection (store.Disk) and the disk tier of the frontier.
// Callers keep their own index from key to Pos — the KeyDir-over-log
// shape of Bitcask — and the log owns everything about the bytes:
// framing, replay and the torn-tail sweep at open, buffered appends,
// pinned reads, rolling and compaction.
//
// Frame layout (little endian), shared by records and tombstones:
//
//	crc32(keyLen ++ valLen ++ key ++ val) uint32
//	keyLen uint32 | valLen uint32 (valLen == ^0 marks a tombstone: no value bytes)
//	key bytes | val bytes
//
// Sweep rule. Open replays every segment in order. A torn frame (the
// file ends inside it) or a corrupt one (its CRC does not match) ends
// that segment's replay and is truncated away with everything after it:
// a crash mid-append leaves exactly such a tail, and those frames were
// never acknowledged. Anything else fails the open and leaves the file
// as it was: a real read error (the bytes may be fine) and an intact
// frame the caller's replay function refuses (it is somebody's data).
// Later segments still replay after a sweep.
//
// Durability. Appends are buffered and reach the file at Flush, at the
// next read, or once the buffer passes writeChunk; there
// is no fsync, so what was written survives the death of the process
// but not the loss of power.
//
// Concurrency. A Log is safe for concurrent use. Every segment keeps one
// shared read handle, read with positioned ReadAt calls (pread) that
// never touch the append offset. A reader pins its segment (Pin) and
// reads outside any lock; a segment retired by Compact or Close is
// closed — and, after a compaction, unlinked — by the last pin's
// release. Cold handles beyond the cap are closed and reopened on
// demand, so a log's descriptor use stays bounded however many segments
// it spans.
package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"webevolve/internal/obs"
)

const (
	// HeaderLen is a frame's fixed prefix: CRC, key length, value length.
	HeaderLen = 12
	tombstone = ^uint32(0)
	// writeChunk bounds the append buffer: an append that fills it
	// writes it out, so a large batch reaches the file in 64 KiB writes.
	writeChunk = 64 << 10

	// DefaultSegmentBytes is the size past which the next append rolls
	// to a new segment.
	DefaultSegmentBytes = 64 << 20
	// DefaultOpenSegments caps the segments holding an open read handle.
	DefaultOpenSegments = 256
)

var (
	// ErrCorrupt reports a read whose bytes are not one whole, CRC-valid
	// record frame: corruption, or an index pointing at the wrong place.
	ErrCorrupt = errors.New("seglog: corrupt frame at indexed position")
	// errClosed reports a write or read on a closed log.
	errClosed = errors.New("seglog: log closed")
)

// Pos locates one frame: N is the whole frame's length, so a read is a
// single pread. 16 bytes: callers keep one per live key.
type Pos struct {
	Off int64
	Seg uint32
	N   uint32
}

// Metrics are the counters a log reports its segment lifecycle to. A
// nil field counts nothing; the zero Metrics counts nothing at all.
type Metrics struct {
	Opens     *obs.Counter // segment files opened (replay and fresh segments)
	Reopens   *obs.Counter // evicted handles reopened for a read
	Evictions *obs.Counter // idle handles closed to stay under the cap
	Rolls     *obs.Counter // active segments rolled at the size bound
	TornTails *obs.Counter // torn or corrupt tails swept at open
}

func count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// ReplayFunc receives each intact frame at open, in log order. key and
// val alias a buffer reused for the next frame. A non-nil error fails
// the open and leaves the segment untouched.
type ReplayFunc func(pos Pos, key, val []byte, tomb bool) error

// Log is one directory of segments. The zero value is not usable; see
// Open.
type Log struct {
	dir      string
	segBytes int64
	maxOpen  int
	m        Metrics

	mu      sync.Mutex
	segs    map[uint32]*segment // live segments, the active one included
	active  *segment            // nil once closed
	handles int                 // segments holding an open file
	size    int64               // bytes across live segments, buffered frames included
	buf     []byte              // frames appended to the active segment, not yet written
	werr    error               // sticky: a failed write leaves the tail untrustworthy
}

// segment is one segment file and its shared read handle. refs counts
// pins; a retired segment is closed (and, if remove, unlinked) by
// whoever drops refs to zero. f is nil while the handle is evicted.
type segment struct {
	id      uint32
	f       *os.File
	size    int64 // bytes written to the file
	refs    int
	retired bool
	remove  bool
}

// Open opens (or creates) the log in dir, feeding every intact frame of
// every segment to replay, sweeping torn and corrupt tails, and starts
// a fresh active segment. segBytes is the roll bound and maxOpen the
// handle cap (DefaultSegmentBytes and DefaultOpenSegments outside
// tests).
func Open(dir string, segBytes int64, maxOpen int, m Metrics, replay ReplayFunc) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	l := &Log{dir: dir, segBytes: segBytes, maxOpen: maxOpen, m: m, segs: make(map[uint32]*segment)}
	ids, err := segmentIDs(dir)
	if err != nil {
		return nil, err
	}
	next := uint32(1)
	for _, id := range ids {
		if err = l.replaySegment(id, replay); err != nil {
			break
		}
		next = id + 1
	}
	if err == nil {
		err = l.startSegmentLocked(next)
	}
	if err != nil {
		l.Close() // the handles replay opened; no file is written
		return nil, err
	}
	return l, nil
}

func (l *Log) path(id uint32) string { return filepath.Join(l.dir, segmentName(id)) }

func segmentName(id uint32) string { return fmt.Sprintf("segment-%06d.log", id) }

// segmentIDs lists the segments in dir, in order. A name that is not
// exactly segmentName of its number is not a segment.
func segmentIDs(dir string) ([]uint32, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var ids []uint32
	for _, e := range entries {
		var id uint32
		if _, err := fmt.Sscanf(e.Name(), "segment-%d.log", &id); err == nil && e.Name() == segmentName(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids, nil
}

// replaySegment replays one segment, sweeps its tail if torn or
// corrupt, and keeps the file open as the segment's read handle.
func (l *Log) replaySegment(id uint32, fn ReplayFunc) error {
	path := l.path(id)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	s := l.addSegmentLocked(id, f)
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	end, torn, err := replay(bufio.NewReaderSize(f, writeChunk), id, st.Size(), fn)
	if err != nil {
		return fmt.Errorf("seglog: %s: %w", path, err)
	}
	if torn {
		if err := os.Truncate(path, end); err != nil {
			return fmt.Errorf("seglog: sweeping %s: %w", path, err)
		}
		count(l.m.TornTails)
	}
	s.size = end
	l.size += end
	l.evictColdLocked()
	return nil
}

// replay reads the frames of one segment of size bytes from r, handing
// each intact one to fn, and returns the end of the last one. torn
// reports a tail to sweep at end: a frame that runs past the end of the
// file, or fails its CRC. A read error or a refusal by fn is returned
// as an error instead — the caller must not truncate.
func replay(r io.Reader, id uint32, size int64, fn ReplayFunc) (end int64, torn bool, err error) {
	var hdr [HeaderLen]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil { // io.EOF: the last frame was whole
			return end, err == io.ErrUnexpectedEOF, readErr(err, end)
		}
		keyLen := int64(binary.LittleEndian.Uint32(hdr[4:]))
		valLen := binary.LittleEndian.Uint32(hdr[8:])
		tomb := valLen == tombstone
		if tomb {
			valLen = 0
		}
		n := HeaderLen + keyLen + int64(valLen)
		if end+n > size || n > math.MaxUint32 {
			return end, true, nil // its bytes are not all there: torn
		}
		if int64(cap(buf)) < n-HeaderLen {
			buf = make([]byte, n-HeaderLen)
		}
		body := buf[:n-HeaderLen]
		if _, err := io.ReadFull(r, body); err != nil {
			return end, err == io.ErrUnexpectedEOF || err == io.EOF, readErr(err, end)
		}
		if crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, body) != binary.LittleEndian.Uint32(hdr[:4]) {
			return end, true, nil
		}
		if err := fn(Pos{Off: end, Seg: id, N: uint32(n)}, body[:keyLen], body[keyLen:], tomb); err != nil {
			return end, false, fmt.Errorf("frame at offset %d: %w", end, err)
		}
		end += n
	}
}

// readErr is nil for a short read (a torn frame) and names the offset
// of any other read failure.
func readErr(err error, off int64) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return fmt.Errorf("reading frame at offset %d: %w", off, err)
}

// startSegmentLocked creates segment id and makes it the active one.
// Its handle doubles as the segment's read handle: ReadAt is
// positioned, so reads never disturb the append offset.
func (l *Log) startSegmentLocked(id uint32) error {
	f, err := os.OpenFile(l.path(id), os.O_CREATE|os.O_EXCL|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	l.active = l.addSegmentLocked(id, f)
	l.evictColdLocked()
	return nil
}

// addSegmentLocked adds a live segment with its open handle. It does
// not evict: callers evict once the new handle is protected (active) or
// no longer needed (replayed).
func (l *Log) addSegmentLocked(id uint32, f *os.File) *segment {
	s := &segment{id: id, f: f}
	l.segs[id] = s
	l.handles++
	count(l.m.Opens)
	return s
}

// Append frames key and val onto the log and returns the frame's
// position. The frame is buffered: it reaches the file at the next
// Flush, at the next read, or once the buffer fills. An error is the
// log's sticky write error; the frame was not appended.
func (l *Log) Append(key string, val []byte) (Pos, error) {
	return l.append(key, val, false)
}

// Delete appends a tombstone for key, as Append does.
func (l *Log) Delete(key string) (Pos, error) {
	return l.append(key, nil, true)
}

func (l *Log) append(key string, val []byte, tomb bool) (Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.werr != nil {
		return Pos{}, l.werr
	}
	n := HeaderLen + int64(len(key)) + int64(len(val))
	if n > math.MaxUint32 {
		return Pos{}, fmt.Errorf("seglog: %d-byte frame", n)
	}
	// Roll between writes only: buffered frames already hold positions
	// in the active segment.
	if len(l.buf) == 0 && l.active.size >= l.segBytes {
		if err := l.startSegmentLocked(l.active.id + 1); err != nil {
			return Pos{}, err
		}
		count(l.m.Rolls)
	}
	pos := Pos{Off: l.active.size + int64(len(l.buf)), Seg: l.active.id, N: uint32(n)}
	l.buf = appendFrame(l.buf, key, val, tomb)
	l.size += n
	if len(l.buf) >= writeChunk {
		return pos, l.writeLocked()
	}
	return pos, nil
}

// appendFrame appends one whole frame to dst.
func appendFrame(dst []byte, key string, val []byte, tomb bool) []byte {
	start := len(dst)
	valLen := uint32(len(val))
	if tomb {
		valLen = tombstone
	}
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, valLen)
	dst = append(dst, key...)
	dst = append(dst, val...)
	binary.LittleEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(dst[start+4:]))
	return dst
}

// Flush writes the buffered frames to the active segment in one write.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeLocked()
}

// writeLocked writes the buffer out. A failed or short write can leave
// a partial frame on the tail — the next open sweeps it — but every
// position assigned after it would be off, and frames appended behind a
// torn one would be swept with it: the error sticks and the log refuses
// further writes. Everything already written stays readable.
func (l *Log) writeLocked() error {
	if l.werr == nil && len(l.buf) > 0 {
		if _, err := l.active.f.Write(l.buf); err != nil {
			l.werr = fmt.Errorf("seglog: %w", err)
		} else {
			l.active.size += int64(len(l.buf))
		}
	}
	l.buf = l.buf[:0]
	return l.werr
}

// Pin holds the segment of one frame open for a read outside the
// caller's lock: a caller that looks pos up in its index under its own
// lock pins before unlocking, and a Compact in between cannot pull the
// file away. A Pin is good for one Read.
type Pin struct {
	l   *Log
	s   *segment
	pos Pos
}

// Pin pins pos's segment, writing the buffer out first: pos may be in
// it, and a log that is read between appends holds little unwritten.
func (l *Log) Pin(pos Pos) (Pin, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeLocked(); err != nil {
		return Pin{}, err
	}
	s := l.segs[pos.Seg]
	if s == nil {
		return Pin{}, fmt.Errorf("seglog: position in missing segment %d", pos.Seg)
	}
	if err := l.ensureOpenLocked(s); err != nil {
		return Pin{}, err
	}
	// Pin before evicting: the pin protects the handle from its own
	// eviction pass.
	s.refs++
	l.evictColdLocked()
	return Pin{l: l, s: s, pos: pos}, nil
}

// Read reads the pinned frame with one pread into buf (or a new buffer
// if buf is short), releases the pin, and returns the frame's key and
// value, aliasing that buffer. A frame that is not a whole, CRC-valid
// record — a tombstone included — is ErrCorrupt.
func (p Pin) Read(buf []byte) (key, val []byte, err error) {
	if uint32(cap(buf)) < p.pos.N {
		buf = make([]byte, p.pos.N)
	}
	frame := buf[:p.pos.N]
	_, err = p.s.f.ReadAt(frame, p.pos.Off)
	p.l.release(p.s)
	if err != nil {
		return nil, nil, fmt.Errorf("seglog: %w", err)
	}
	key, val, ok := checkFrame(frame)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	return key, val, nil
}

// checkFrame verifies a whole record frame — lengths consistent with
// the buffer, CRC — and returns its key and value bytes.
func checkFrame(frame []byte) (key, val []byte, ok bool) {
	if len(frame) < HeaderLen {
		return nil, nil, false
	}
	keyLen := uint64(binary.LittleEndian.Uint32(frame[4:]))
	valLen := uint64(binary.LittleEndian.Uint32(frame[8:]))
	if HeaderLen+keyLen+valLen != uint64(len(frame)) ||
		crc32.ChecksumIEEE(frame[4:]) != binary.LittleEndian.Uint32(frame) {
		return nil, nil, false
	}
	return frame[HeaderLen : HeaderLen+keyLen], frame[HeaderLen+keyLen:], true
}

// ensureOpenLocked reopens an evicted handle. It never evicts: callers
// evict where the handle they need is protected.
func (l *Log) ensureOpenLocked(s *segment) error {
	if s.f != nil {
		return nil
	}
	f, err := os.Open(l.path(s.id))
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	s.f = f
	l.handles++
	count(l.m.Reopens)
	return nil
}

// evictColdLocked closes idle handles beyond the cap — never the
// active segment's and never a pinned one. Map order makes the choice
// arbitrary, which is fine: a wrongly evicted handle reopens on demand.
func (l *Log) evictColdLocked() {
	for _, s := range l.segs {
		if l.handles <= l.maxOpen {
			return
		}
		if s == l.active || s.f == nil || s.refs > 0 {
			continue
		}
		s.f.Close()
		s.f = nil
		l.handles--
		count(l.m.Evictions)
	}
}

// release drops a pin; the last release of a retired segment drops it.
func (l *Log) release(s *segment) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.refs--; s.retired && s.refs == 0 {
		l.dropLocked(s)
	}
	// A wide scan can pin (and open) many segments at once; trim back
	// to the cap as the pins drop.
	l.evictColdLocked()
}

// retireLocked takes a segment out of the live set, dropping it now if
// nobody pins it; otherwise the last release does.
func (l *Log) retireLocked(s *segment, remove bool) {
	delete(l.segs, s.id)
	l.size -= s.size
	s.retired, s.remove = true, remove
	if s.refs == 0 {
		l.dropLocked(s)
	}
}

// dropLocked closes a retired segment's handle and, if it was compacted
// away, unlinks the file. Errors are dropped: writes go straight to the
// file, so a handle holds nothing unwritten, and a compacted-away
// segment that survives its unlink replays before the compacted one,
// whose frames win.
func (l *Log) dropLocked(s *segment) {
	if s.f != nil {
		s.f.Close()
		s.f = nil
		l.handles--
	}
	if s.remove {
		os.Remove(l.path(s.id))
	}
}

// Compact copies the frames at live, in order and checked but not
// decoded, into a fresh segment that becomes the active one, and
// retires every other segment; pinned ones stay readable until their
// last release. It returns the copies' positions, live[i] → [i]; on
// error the log keeps every old segment and the caller keeps its index.
// Compact(nil) empties the log.
func (l *Log) Compact(live []Pos) ([]Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeLocked(); err != nil {
		return nil, err
	}
	if err := l.startSegmentLocked(l.active.id + 1); err != nil {
		return nil, err
	}
	moved := make([]Pos, len(live))
	for i, pos := range live {
		src := l.segs[pos.Seg]
		if src == nil {
			return nil, fmt.Errorf("seglog: position in missing segment %d", pos.Seg)
		}
		if err := l.ensureOpenLocked(src); err != nil {
			return nil, err
		}
		start := len(l.buf)
		l.buf = slices.Grow(l.buf, int(pos.N))
		frame := l.buf[start : start+int(pos.N)] // appended only once checked
		if _, err := src.f.ReadAt(frame, pos.Off); err != nil {
			return nil, fmt.Errorf("seglog: %w", err)
		}
		if _, _, ok := checkFrame(frame); !ok {
			return nil, ErrCorrupt
		}
		l.buf = l.buf[:start+int(pos.N)]
		moved[i] = Pos{Off: l.active.size + int64(start), Seg: l.active.id, N: pos.N}
		l.size += int64(pos.N)
		if len(l.buf) >= writeChunk {
			if err := l.writeLocked(); err != nil {
				return nil, err
			}
		}
	}
	if err := l.writeLocked(); err != nil {
		return nil, err
	}
	for _, s := range l.segs {
		if s != l.active {
			l.retireLocked(s, true)
		}
	}
	l.evictColdLocked()
	return moved, nil
}

// Size reports the log's bytes: every live segment plus the buffer.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close writes the buffer out and retires every segment; pinned ones
// close at their last release. Later calls do nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.werr == errClosed {
		return nil
	}
	err := l.writeLocked()
	for _, s := range l.segs {
		l.retireLocked(s, false)
	}
	l.active, l.buf, l.werr = nil, nil, errClosed
	return err
}
