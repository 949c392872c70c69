package frontier

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
)

// diskStore is the disk-backed shard store: a bitcask-style append-only
// record log with an in-memory fingerprint index, keeping only the
// due-soon head of the shard materialized in RAM.
//
// Layout. Every mutation appends one CRC-framed record to the shard's
// log — a put (URL, due, priority) or a tombstone (URL) — so the log
// alone always reconstructs the live entry set: openDiskStore replays
// it front to back (last record per fingerprint wins, tombstones
// delete) and truncates a torn tail at the first invalid frame, the
// same sweep discipline as the cluster WAL and store.Disk. When dead
// bytes (overwritten puts, tombstones and what they killed) outweigh
// live ones the log is compacted in place: live records are rewritten
// to a temp file that is renamed over the log.
//
// RAM. Per entry the store keeps a fingerprint-keyed index record
// (offset, size, seq, residency bit) and, while the entry is spilled,
// one spillHeap item (due, priority, fingerprint, seq) — no URL string,
// no full Entry. Full entries live in the resident memQueue, which
// holds at most the configured budget of them, filled by direct puts
// while under budget and by promotion from the spill heap when the pop
// order demands it.
//
// Ordering. head/popHead/topN must match memStore bit for bit. The
// resident set is not required to be a prefix of the pop order; instead
// every read promotes spilled entries until the spill minimum orders
// strictly after the entry it competes with — the resident head for
// head/popHead, the peek window's cut-off for topN. Spill items carry
// (due, priority) but not the URL that breaks exact ties, so a tie on
// both keys conservatively promotes the whole tie group and lets the
// resident queue's full comparator decide — a transient overshoot of
// the resident budget bounded by the largest (due, priority) tie group.
//
// Fingerprints are 64-bit FNV-1a over the URL. A collision maps two
// URLs to one index slot and corrupts their entries' bookkeeping; the
// probability is ~n²/2⁶⁴ (about 3·10⁻⁴ at 100M URLs) and the failure
// is confined to the colliding pair, which this design accepts in
// exchange for never holding URL strings for spilled entries.
//
// Error handling. ShardSet has no error returns, so an I/O failure on
// the spill log (disk full, read error, lost file) panics with context.
// The shardd WAL is the durability plane: a restart replays the WAL
// through Reset, which truncates the spill logs and rebuilds them.
type diskStore struct {
	path string
	f    *os.File
	w    *bufio.Writer
	wOff int64 // logical end of the log: offset of the next append
	// dirty marks unflushed writer data; reads flush first.
	dirty bool

	index map[uint64]*idxEnt
	spill spillHeap
	// resident is the in-RAM head; budget caps its steady-state size
	// (tie-group promotion and a peek longer than the budget may
	// transiently exceed it — correctness outranks the cap).
	resident *memQueue
	budget   int

	seq       uint64 // per-record monotonic counter; pairs with spill items
	deadBytes int64  // bytes of overwritten/tombstoned records (and tombstones)
}

// idxEnt is the in-memory index record for one stored entry.
type idxEnt struct {
	off      int64
	size     uint32
	seq      uint64
	resident bool
}

// spillItem is the ordering key of one spilled entry. Items are never
// removed on reschedule; a stale item (seq behind the index, or its
// fingerprint gone or resident) is discarded when it reaches the top.
type spillItem struct {
	due, prio float64
	fp, seq   uint64
}

// spillHeap is a min-heap of spill items in pop-order: due ascending,
// then priority descending. Exact ties are broken by fingerprint only
// to keep the heap deterministic; the real URL tie-break happens in the
// resident queue after the whole tie group is promoted.
type spillHeap []spillItem

func (h spillHeap) Len() int { return len(h) }
func (h spillHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	if h[i].fp != h[j].fp {
		return h[i].fp < h[j].fp
	}
	return h[i].seq > h[j].seq
}
func (h spillHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *spillHeap) Push(x any)   { *h = append(*h, x.(spillItem)) }
func (h *spillHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

const (
	recPut  = byte(1)
	recTomb = byte(2)
	// recHeader is the per-record frame: u32 payload length, u32 CRC.
	recHeader = 8
	// maxRecord bounds a single record's payload; anything larger in
	// the log is corruption.
	maxRecord = 1 << 24
	// readAhead is how many entries a head read keeps promoted beyond
	// the strict minimum, so a pop burst doesn't pay one log read per
	// pop.
	readAhead = 16
	// compactMinDead and the dead>live rule gate log compaction.
	compactMinDead = 4 << 20
)

// fpOf is 64-bit FNV-1a over the URL bytes.
func fpOf(url string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(url); i++ {
		h ^= uint64(url[i])
		h *= prime64
	}
	return h
}

// appendRecordBuf appends one framed record to buf and returns it.
func appendRecordBuf(buf []byte, kind byte, url string, due, prio float64) []byte {
	p := make([]byte, 0, 1+binary.MaxVarintLen64+len(url)+16)
	p = append(p, kind)
	p = binary.AppendUvarint(p, uint64(len(url)))
	p = append(p, url...)
	if kind == recPut {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(due))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(prio))
	}
	var hdr [recHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
	buf = append(buf, hdr[:]...)
	return append(buf, p...)
}

// parseRecord decodes one record payload (the bytes after the frame
// header, CRC already verified).
func parseRecord(p []byte) (kind byte, url string, due, prio float64, err error) {
	if len(p) < 2 {
		return 0, "", 0, 0, fmt.Errorf("record too short (%d bytes)", len(p))
	}
	kind = p[0]
	n, w := binary.Uvarint(p[1:])
	if w <= 0 || n > uint64(len(p)) {
		return 0, "", 0, 0, fmt.Errorf("bad url length")
	}
	rest := p[1+w:]
	if uint64(len(rest)) < n {
		return 0, "", 0, 0, fmt.Errorf("truncated url")
	}
	url = string(rest[:n])
	rest = rest[n:]
	switch kind {
	case recPut:
		if len(rest) != 16 {
			return 0, "", 0, 0, fmt.Errorf("put record with %d trailing bytes", len(rest))
		}
		due = math.Float64frombits(binary.LittleEndian.Uint64(rest[:8]))
		prio = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
	case recTomb:
		if len(rest) != 0 {
			return 0, "", 0, 0, fmt.Errorf("tombstone with %d trailing bytes", len(rest))
		}
	default:
		return 0, "", 0, 0, fmt.Errorf("unknown record kind %d", kind)
	}
	return kind, url, due, prio, nil
}

// openDiskStore opens (or creates) one shard's record log and rebuilds
// the fingerprint index and spill heap from it, truncating a torn tail
// back to the last valid record.
func openDiskStore(path string, budget int) (*diskStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("frontier: spill log: %w", err)
	}
	d := &diskStore{
		path:     path,
		f:        f,
		index:    make(map[uint64]*idxEnt),
		resident: newMemQueue(),
		budget:   max(1, budget),
	}
	if err := d.rebuild(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(d.wOff, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("frontier: spill log %s: %w", path, err)
	}
	d.w = bufio.NewWriter(f)
	return d, nil
}

// rebuild scans the log front to back: last record per fingerprint
// wins, tombstones delete, and the first invalid frame (a torn tail
// from a crash, or corruption) ends the scan and is truncated away
// with everything after it.
func (d *diskStore) rebuild() error {
	if _, err := d.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("frontier: spill log %s: %w", d.path, err)
	}
	r := bufio.NewReader(d.f)
	var off int64
	var hdr [recHeader]byte
	torn := false
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			torn = err != io.EOF
			break
		}
		plen := binary.LittleEndian.Uint32(hdr[:4])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if plen > maxRecord {
			torn = true
			break
		}
		p := make([]byte, plen)
		if _, err := io.ReadFull(r, p); err != nil {
			torn = true
			break
		}
		if crc32.ChecksumIEEE(p) != crc {
			torn = true
			break
		}
		kind, url, due, prio, err := parseRecord(p)
		if err != nil {
			torn = true
			break
		}
		size := uint32(recHeader + plen)
		d.seq++
		fp := fpOf(url)
		switch kind {
		case recPut:
			if ie, ok := d.index[fp]; ok {
				d.deadBytes += int64(ie.size)
				ie.off, ie.size, ie.seq = off, size, d.seq
			} else {
				d.index[fp] = &idxEnt{off: off, size: size, seq: d.seq}
			}
			d.spill = append(d.spill, spillItem{due: due, prio: prio, fp: fp, seq: d.seq})
		case recTomb:
			if ie, ok := d.index[fp]; ok {
				d.deadBytes += int64(ie.size)
				delete(d.index, fp)
			}
			d.deadBytes += int64(size)
		}
		off += int64(size)
	}
	if torn {
		if err := d.f.Truncate(off); err != nil {
			return fmt.Errorf("frontier: spill log %s: truncating torn tail: %w", d.path, err)
		}
	}
	d.wOff = off
	heap.Init(&d.spill)
	return nil
}

// fatal is the disk tier's I/O failure path: ShardSet has no error
// returns, so a broken spill log aborts the process with context. The
// WAL (when enabled) makes this recoverable: a restart replays it
// through Reset, rebuilding the spill logs from scratch.
func (d *diskStore) fatal(op string, err error) {
	panic(fmt.Sprintf("frontier: spill log %s: %s: %v", d.path, op, err))
}

func (d *diskStore) flush() {
	if !d.dirty {
		return
	}
	if err := d.w.Flush(); err != nil {
		d.fatal("flush", err)
	}
	d.dirty = false
}

// appendRecord writes one framed record, returning its offset and size.
func (d *diskStore) appendRecord(kind byte, url string, due, prio float64) (int64, uint32) {
	rec := appendRecordBuf(nil, kind, url, due, prio)
	if _, err := d.w.Write(rec); err != nil {
		d.fatal("append", err)
	}
	d.dirty = true
	off := d.wOff
	d.wOff += int64(len(rec))
	return off, uint32(len(rec))
}

// readEntry loads the put record at (off, size) back into an Entry.
func (d *diskStore) readEntry(off int64, size uint32) Entry {
	d.flush()
	buf := make([]byte, size)
	if _, err := d.f.ReadAt(buf, off); err != nil {
		d.fatal("read", err)
	}
	plen := binary.LittleEndian.Uint32(buf[:4])
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if int(plen) != len(buf)-recHeader || crc32.ChecksumIEEE(buf[recHeader:]) != crc {
		d.fatal("read", fmt.Errorf("corrupt record at offset %d", off))
	}
	kind, url, due, prio, err := parseRecord(buf[recHeader:])
	if err != nil || kind != recPut {
		d.fatal("read", fmt.Errorf("bad record at offset %d: %v", off, err))
	}
	return Entry{URL: url, Due: due, Priority: prio}
}

func (d *diskStore) size() int { return len(d.index) }

func (d *diskStore) contains(url string) bool {
	_, ok := d.index[fpOf(url)]
	return ok
}

func (d *diskStore) put(e Entry) {
	fp := fpOf(e.URL)
	d.seq++
	off, size := d.appendRecord(recPut, e.URL, e.Due, e.Priority)
	ie, ok := d.index[fp]
	if ok {
		d.deadBytes += int64(ie.size)
		ie.off, ie.size, ie.seq = off, size, d.seq
	} else {
		ie = &idxEnt{off: off, size: size, seq: d.seq}
		d.index[fp] = ie
		// New entries stay resident while the head is under budget —
		// small frontiers never touch the spill read path.
		if d.resident.size() < d.budget {
			ie.resident = true
			d.resident.put(e)
			d.maybeCompact()
			return
		}
	}
	if ie.resident {
		d.resident.put(e)
	} else {
		heap.Push(&d.spill, spillItem{due: e.Due, prio: e.Priority, fp: fp, seq: d.seq})
	}
	d.maybeCompact()
}

func (d *diskStore) remove(url string) bool {
	fp := fpOf(url)
	ie, ok := d.index[fp]
	if !ok {
		return false
	}
	if ie.resident {
		d.resident.remove(url)
	}
	_, size := d.appendRecord(recTomb, url, 0, 0)
	d.deadBytes += int64(ie.size) + int64(size)
	delete(d.index, fp)
	d.maybeCompact()
	return true
}

// spillMin returns the spill heap's first live item, discarding stale
// ones (rescheduled past their seq, removed, or already promoted).
func (d *diskStore) spillMin() (spillItem, bool) {
	for len(d.spill) > 0 {
		it := d.spill[0]
		ie, ok := d.index[it.fp]
		if !ok || ie.seq != it.seq || ie.resident {
			heap.Pop(&d.spill)
			continue
		}
		return it, true
	}
	return spillItem{}, false
}

// promoteMin loads the spill heap's top entry (which spillMin just
// validated) into the resident queue and returns it.
func (d *diskStore) promoteMin() Entry {
	it := heap.Pop(&d.spill).(spillItem)
	ie := d.index[it.fp]
	ie.resident = true
	e := d.readEntry(ie.off, ie.size)
	d.resident.put(e)
	return e
}

// spillAfter reports whether the spill item orders strictly after the
// resident entry on (due, priority) alone. A tie is not "after": the
// URL that would break it lives only on disk, so the caller promotes.
func spillAfter(it spillItem, e Entry) bool {
	if it.due != e.Due {
		return it.due > e.Due
	}
	return it.prio < e.Priority
}

// ensureHead promotes until the resident head is the store's true pop
// head (plus a little read-ahead so pop bursts batch their log reads).
func (d *diskStore) ensureHead() {
	for d.resident.size() < min(d.budget, readAhead) {
		if _, ok := d.spillMin(); !ok {
			break
		}
		d.promoteMin()
	}
	for {
		it, ok := d.spillMin()
		if !ok {
			return
		}
		if re, rok := d.resident.head(); rok && spillAfter(it, re) {
			return
		}
		d.promoteMin()
	}
}

func (d *diskStore) head() (Entry, bool) {
	d.ensureHead()
	return d.resident.head()
}

func (d *diskStore) popHead() Entry {
	d.ensureHead()
	e := d.resident.popHead()
	fp := fpOf(e.URL)
	if ie, ok := d.index[fp]; ok {
		_, size := d.appendRecord(recTomb, e.URL, 0, 0)
		d.deadBytes += int64(ie.size) + int64(size)
		delete(d.index, fp)
	}
	d.maybeCompact()
	return e
}

// topN offers the resident entries first, then promotes and offers
// spill items for as long as one could still make w's list: until the
// list is full and the spill minimum orders strictly after its cut-off
// on (due, priority). Later spill items order no earlier and the cut-off
// only tightens, so none of them can make the list either; a tie still
// promotes, because the URL that breaks it is only on disk. Promotion is
// therefore bounded by what this shard contributes to the list plus its
// tie group — not by n per shard.
func (d *diskStore) topN(w *peekWindow) {
	d.resident.topN(w)
	for {
		it, ok := d.spillMin()
		if !ok {
			return
		}
		if c, full := w.cutoff(); full && spillAfter(it, c) {
			return
		}
		w.offer(d.promoteMin())
	}
}

// each visits every entry in log-offset order — deterministic for a
// given operation history. Every entry is read back from the log (it is
// always current: puts are appended even for resident entries), so the
// walk needs no URL map over the resident set.
func (d *diskStore) each(fn func(Entry) error) error {
	d.flush()
	ents := make([]*idxEnt, 0, len(d.index))
	for _, ie := range d.index {
		ents = append(ents, ie)
	}
	sortIdxByOff(ents)
	for _, ie := range ents {
		if err := fn(d.readEntry(ie.off, ie.size)); err != nil {
			return err
		}
	}
	return nil
}

func sortIdxByOff(ents []*idxEnt) {
	// Offsets are unique, so a simple sort suffices.
	sort.Slice(ents, func(i, j int) bool { return ents[i].off < ents[j].off })
}

func (d *diskStore) reset() {
	d.flush()
	if err := d.f.Truncate(0); err != nil {
		d.fatal("truncate", err)
	}
	if _, err := d.f.Seek(0, io.SeekStart); err != nil {
		d.fatal("seek", err)
	}
	d.w.Reset(d.f)
	d.wOff = 0
	d.seq = 0
	d.deadBytes = 0
	d.index = make(map[uint64]*idxEnt)
	d.spill = nil
	d.resident.reset()
}

func (d *diskStore) close() error {
	if err := d.w.Flush(); err != nil {
		d.f.Close()
		return fmt.Errorf("frontier: spill log %s: %w", d.path, err)
	}
	return d.f.Close()
}

func (d *diskStore) tier() TierStats {
	return TierStats{
		Resident:   d.resident.size(),
		Spilled:    len(d.index) - d.resident.size(),
		SpillBytes: d.wOff,
	}
}

// maybeCompact rewrites the log down to its live records once dead
// bytes pass a floor and outweigh the live ones. Offsets in the index
// are rewritten; seqs (and with them the spill heap) are untouched.
func (d *diskStore) maybeCompact() {
	if d.deadBytes < compactMinDead || d.deadBytes <= d.wOff-d.deadBytes {
		return
	}
	d.flush()
	tmp := d.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		d.fatal("compact", err)
	}
	w := bufio.NewWriter(nf)
	ents := make([]*idxEnt, 0, len(d.index))
	for _, ie := range d.index {
		ents = append(ents, ie)
	}
	sortIdxByOff(ents)
	var off int64
	buf := make([]byte, 0, 4096)
	for _, ie := range ents {
		if cap(buf) < int(ie.size) {
			buf = make([]byte, ie.size)
		}
		buf = buf[:ie.size]
		if _, err := d.f.ReadAt(buf, ie.off); err != nil {
			nf.Close()
			d.fatal("compact read", err)
		}
		if _, err := w.Write(buf); err != nil {
			nf.Close()
			d.fatal("compact write", err)
		}
		ie.off = off
		off += int64(ie.size)
	}
	if err := w.Flush(); err != nil {
		nf.Close()
		d.fatal("compact flush", err)
	}
	if err := os.Rename(tmp, d.path); err != nil {
		nf.Close()
		d.fatal("compact rename", err)
	}
	if err := d.f.Close(); err != nil {
		d.fatal("compact close", err)
	}
	d.f = nf
	d.w.Reset(nf)
	d.wOff = off
	d.deadBytes = 0
}
