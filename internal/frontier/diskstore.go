package frontier

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"webevolve/internal/seglog"
)

// diskStore is the disk-backed shard store: a bitcask-style segment log
// (internal/seglog) with an in-memory fingerprint index, keeping only
// the due-soon head of the shard materialized in RAM.
//
// Layout. Every mutation appends one frame to the shard's log — a put
// (key URL, value due|priority, 16 bytes) or a tombstone (key URL) — so
// the log alone always reconstructs the live entry set: openDiskStore
// replays it front to back (last frame per fingerprint wins, tombstones
// delete) under the seglog sweep rule: a torn or corrupt tail is
// truncated away, a read error or a put whose value is not 16 bytes
// fails the open. When dead bytes (overwritten puts, tombstones and what
// they killed) outweigh live ones the live frames are compacted into a
// fresh segment.
//
// RAM. Per entry the store keeps a fingerprint-keyed index record
// (position, seq and, while resident, queue slot) and, while the
// entry is spilled, one spillHeap item (due, priority, fingerprint,
// seq) — no URL string, no full Entry. Full entries live in the
// resident memQueue, which holds at most the configured budget of them,
// filled by direct puts while under budget and by promotion from the
// spill heap when the pop order demands it. A resident entry's index
// record names its queue slot, so the resident set needs no URL map of
// its own, and a pop or remove frees the slot at once.
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
// through Reset, which empties the spill logs and rebuilds them.
type diskStore struct {
	dir  string
	log  *seglog.Log
	rbuf []byte // read buffer, reused by every read

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

// idxEnt is the in-memory index record for one stored entry: 32 bytes.
type idxEnt struct {
	pos  seglog.Pos
	seq  uint64
	slot int32 // the entry's resident queue slot, or spilled
}

// spilled is idxEnt.slot for an entry that is not resident.
const spilled = -1

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
	// spillValLen is a put frame's value: due and priority, float64 bits.
	spillValLen = 16
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

// openDiskStore opens (or creates) one shard's segment log in dir and
// rebuilds the fingerprint index and spill heap from it.
func openDiskStore(dir string, budget int) (*diskStore, error) {
	d := &diskStore{
		dir:      dir,
		index:    make(map[uint64]*idxEnt),
		resident: &memQueue{},
		budget:   max(1, budget),
	}
	log, err := seglog.Open(dir, seglog.DefaultSegmentBytes, seglog.DefaultOpenSegments, seglog.Metrics{}, d.replay)
	if err != nil {
		return nil, fmt.Errorf("frontier: spill log: %w", err)
	}
	d.log = log
	heap.Init(&d.spill)
	return d, nil
}

// replay applies one frame of the log at open: last frame per
// fingerprint wins, tombstones delete. A put whose value is not due and
// priority is not a spill record: it fails the open.
func (d *diskStore) replay(pos seglog.Pos, key, val []byte, tomb bool) error {
	d.seq++
	fp := fpOf(string(key))
	ie, ok := d.index[fp]
	if ok {
		d.deadBytes += int64(ie.pos.N)
	}
	if tomb {
		delete(d.index, fp)
		d.deadBytes += int64(pos.N)
		return nil
	}
	if len(val) != spillValLen {
		return fmt.Errorf("put for %q holds %d value bytes, want %d", key, len(val), spillValLen)
	}
	if ok {
		ie.pos, ie.seq = pos, d.seq
	} else {
		d.index[fp] = &idxEnt{pos: pos, seq: d.seq, slot: spilled}
	}
	due, prio := decodeSpill(val)
	d.spill = append(d.spill, spillItem{due: due, prio: prio, fp: fp, seq: d.seq})
	return nil
}

func decodeSpill(val []byte) (due, prio float64) {
	return math.Float64frombits(binary.LittleEndian.Uint64(val)),
		math.Float64frombits(binary.LittleEndian.Uint64(val[8:]))
}

// fatal is the disk tier's I/O failure path: ShardSet has no error
// returns, so a broken spill log aborts the process with context. The
// WAL (when enabled) makes this recoverable: a restart replays it
// through Reset, rebuilding the spill logs from scratch.
func (d *diskStore) fatal(op string, err error) {
	panic(fmt.Sprintf("frontier: spill log %s: %s: %v", d.dir, op, err))
}

// appendTomb appends a tombstone for url and returns its length.
func (d *diskStore) appendTomb(url string) int64 {
	pos, err := d.log.Delete(url)
	if err != nil {
		d.fatal("append", err)
	}
	return int64(pos.N)
}

// readEntry loads the put frame at pos back into an Entry.
func (d *diskStore) readEntry(pos seglog.Pos) Entry {
	if uint32(cap(d.rbuf)) < pos.N {
		d.rbuf = make([]byte, pos.N)
	}
	p, err := d.log.Pin(pos)
	var key, val []byte
	if err == nil {
		key, val, err = p.Read(d.rbuf)
	}
	if err != nil {
		d.fatal("read", err)
	}
	due, prio := decodeSpill(val)
	return Entry{URL: string(key), Due: due, Priority: prio}
}

func (d *diskStore) size() int { return len(d.index) }

func (d *diskStore) contains(url string) bool {
	_, ok := d.index[fpOf(url)]
	return ok
}

func (d *diskStore) put(e Entry) {
	fp := fpOf(e.URL)
	d.seq++
	var val [spillValLen]byte
	binary.LittleEndian.PutUint64(val[:], math.Float64bits(e.Due))
	binary.LittleEndian.PutUint64(val[8:], math.Float64bits(e.Priority))
	pos, err := d.log.Append(e.URL, val[:])
	if err != nil {
		d.fatal("append", err)
	}
	ie, ok := d.index[fp]
	if ok {
		d.deadBytes += int64(ie.pos.N)
		ie.pos, ie.seq = pos, d.seq
	} else {
		ie = &idxEnt{pos: pos, seq: d.seq, slot: spilled}
		d.index[fp] = ie
		// New entries stay resident while the head is under budget —
		// small frontiers never touch the spill read path.
		if d.resident.size() < d.budget {
			ie.slot = d.resident.insert(e)
			d.maybeCompact()
			return
		}
	}
	if ie.slot != spilled {
		d.resident.set(ie.slot, e.Due, e.Priority)
	} else {
		heap.Push(&d.spill, spillItem{due: e.Due, prio: e.Priority, fp: fp, seq: d.seq})
	}
	d.maybeCompact()
}

// remove treats a pop like any remove: the disk tier keeps no slot for
// a URL it no longer stores.
func (d *diskStore) remove(url string, _ bool) bool {
	fp := fpOf(url)
	ie, ok := d.index[fp]
	if !ok {
		return false
	}
	if ie.slot != spilled {
		d.resident.unlink(ie.slot)
		d.resident.release(ie.slot)
	}
	d.deadBytes += int64(ie.pos.N) + d.appendTomb(url)
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
		if !ok || ie.seq != it.seq || ie.slot != spilled {
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
	ie.slot = d.resident.insert(d.readEntry(ie.pos))
	return d.resident.slots[ie.slot].e
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
	d.resident.release(e.slot)
	fp := fpOf(e.URL)
	if ie, ok := d.index[fp]; ok {
		d.deadBytes += int64(ie.pos.N) + d.appendTomb(e.URL)
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

// each visits every entry in log order — deterministic for a given
// operation history. Every entry is read back from the log (it is
// always current: puts are appended even for resident entries), so the
// walk needs no URL map over the resident set.
func (d *diskStore) each(fn func(Entry) error) error {
	for _, ie := range d.entsInLogOrder() {
		if err := fn(d.readEntry(ie.pos)); err != nil {
			return err
		}
	}
	return nil
}

func (d *diskStore) entsInLogOrder() []*idxEnt {
	ents := make([]*idxEnt, 0, len(d.index))
	for _, ie := range d.index {
		ents = append(ents, ie)
	}
	// Positions are unique, so a simple sort suffices.
	sort.Slice(ents, func(i, j int) bool {
		a, b := ents[i].pos, ents[j].pos
		return a.Seg < b.Seg || a.Seg == b.Seg && a.Off < b.Off
	})
	return ents
}

// reset empties the log and the store.
func (d *diskStore) reset() {
	if _, err := d.log.Compact(nil); err != nil {
		d.fatal("reset", err)
	}
	d.seq = 0
	d.deadBytes = 0
	d.index = make(map[uint64]*idxEnt)
	d.spill = nil
	d.resident.reset()
}

func (d *diskStore) close() error {
	if err := d.log.Close(); err != nil {
		return fmt.Errorf("frontier: spill log %s: %w", d.dir, err)
	}
	return nil
}

func (d *diskStore) tier() TierStats {
	return TierStats{
		Resident:   d.resident.size(),
		Spilled:    len(d.index) - d.resident.size(),
		SpillBytes: d.log.Size(),
	}
}

// maybeCompact copies the live frames into a fresh segment once dead
// bytes pass a floor and outweigh the live ones. Positions in the index
// are rewritten; seqs (and with them the spill heap) are untouched.
func (d *diskStore) maybeCompact() {
	if d.deadBytes < compactMinDead || d.deadBytes <= d.log.Size()-d.deadBytes {
		return
	}
	ents := d.entsInLogOrder()
	live := make([]seglog.Pos, len(ents))
	for i, ie := range ents {
		live[i] = ie.pos
	}
	moved, err := d.log.Compact(live)
	if err != nil {
		d.fatal("compact", err)
	}
	for i, ie := range ents {
		ie.pos = moved[i]
	}
	d.deadBytes = 0
}
