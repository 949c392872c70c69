package frontier

// shardStore is one shard's entry storage, behind which the queue keeps
// either a plain in-memory queue (memStore, the default) or a
// disk-backed tier (diskStore) that materializes only the due-soon head
// in RAM.
//
// Every method is called with the owning shard's mutex held, so
// implementations need no locking of their own. The contract that makes
// the two tiers interchangeable is pop-order equivalence: head, popHead
// and topN must return exactly what one heap in entryBefore's order over
// the same entry set would — the invariance tests compare the tiers bit
// for bit.
type shardStore interface {
	// size returns the number of stored entries.
	size() int
	// contains reports whether url is stored.
	contains(url string) bool
	// put inserts or reschedules e. e's slot is a hint the store may
	// trust only after checking it names e.URL (see memStore.put).
	put(e Entry)
	// remove deletes url, reporting whether it was queued. popped marks
	// a round's pop, whose URL is expected back as a reschedule: the
	// in-memory tier keeps the URL's slot for that push to find.
	remove(url string, popped bool) bool
	// head returns the first entry in pop order without removing it.
	head() (Entry, bool)
	// popHead removes and returns the first entry in pop order. It must
	// only be called when head reported ok.
	popHead() Entry
	// topN offers w every stored entry that can still make its list. A
	// walk in pop order stops at the first entry w refuses: the rest
	// order after it, and w's cut-off only tightens. The entry set is
	// unchanged; a disk tier promotes what it offers.
	topN(w *peekWindow)
	// each calls fn for every stored entry, in a deterministic order of
	// the implementation's choosing, stopping at the first error.
	each(fn func(Entry) error) error
	// reset drops every entry (and, for a disk tier, truncates its log).
	reset()
	// close releases any resources backing the store.
	close() error
	// tier reports the store's residency split for observability.
	tier() TierStats
}

// TierStats is a frontier store's residency split: how many entries are
// materialized in RAM, how many live only in the spill log, and how
// many log bytes the spill occupies (0/0 bytes for the pure in-memory
// tier).
type TierStats struct {
	Resident   int
	Spilled    int
	SpillBytes int64
}

func (t TierStats) add(o TierStats) TierStats {
	return TierStats{
		Resident:   t.Resident + o.Resident,
		Spilled:    t.Spilled + o.Spilled,
		SpillBytes: t.SpillBytes + o.SpillBytes,
	}
}

// StoreConfig configures a sharded frontier's storage tier for
// OpenSharded.
type StoreConfig struct {
	// Shards is the per-site shard count (minimum 1).
	Shards int
	// SpillDir, when non-empty, selects the disk-backed tier: each
	// shard appends its entries to a record log under this directory
	// and keeps only a fingerprint index plus the due-soon head in RAM.
	// Empty selects the in-memory tier.
	SpillDir string
	// ResidentBudget caps (approximately — see the package notes on tie
	// groups) the number of entries the disk tier materializes in RAM
	// across all shards. Zero or negative applies DefaultResidentBudget.
	ResidentBudget int
}

// DefaultResidentBudget is the disk tier's resident-entry cap when the
// config leaves it unset.
const DefaultResidentBudget = 1 << 16

// memQueue is the value-typed index heap that stores a shard's
// entries: the in-memory tier uses it under a URL map (memStore), and
// the disk tier uses one as the resident head of its log, keyed by its
// own index. Entries live by value in a slab of slots; the heap is an
// array of slot numbers, each slot knows its heap position, and freed
// slots are reused. Pop order is Due ascending, then Priority
// descending, then URL — entryBefore's order. The heap moves exactly
// as container/heap would, so the heap array's order — which each
// walks — is what the same operations always gave.
type memQueue struct {
	slots []qslot
	h     []int32 // min-heap of slot numbers
	free  []int32 // released slots, reused last-in first
}

// qslot is one entry's storage. e.slot is the slot's own number, so the
// copies the queue hands out name it.
type qslot struct {
	e   Entry
	pos int32 // position in h, or slotParked or slotFree
}

// A slot out of the heap is parked — its URL popped but still mapped,
// so the push that reschedules it finds the slot (memStore) — or free.
const (
	slotParked int32 = -1
	slotFree   int32 = -2
)

func (m *memQueue) size() int { return len(m.h) }

// less orders heap positions i and j.
func (m *memQueue) less(i, j int) bool {
	a, b := &m.slots[m.h[i]].e, &m.slots[m.h[j]].e
	if a.Due != b.Due {
		return a.Due < b.Due
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.URL < b.URL
}

func (m *memQueue) swap(i, j int) {
	m.h[i], m.h[j] = m.h[j], m.h[i]
	m.slots[m.h[i]].pos = int32(i)
	m.slots[m.h[j]].pos = int32(j)
}

func (m *memQueue) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !m.less(j, i) {
			return
		}
		m.swap(i, j)
		j = i
	}
}

func (m *memQueue) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && m.less(r, j) {
			j = r
		}
		if !m.less(j, i) {
			break
		}
		m.swap(i, j)
		i = j
	}
	return i > i0
}

// link puts slot s into the heap.
func (m *memQueue) link(s int32) {
	m.slots[s].pos = int32(len(m.h))
	m.h = append(m.h, s)
	m.up(len(m.h) - 1)
}

// insert stores e in a free slot, links it and returns the slot.
func (m *memQueue) insert(e Entry) int32 {
	var s int32
	if n := len(m.free); n > 0 {
		s, m.free = m.free[n-1], m.free[:n-1]
	} else {
		s = int32(len(m.slots))
		m.slots = append(m.slots, qslot{})
	}
	e.slot = s
	m.slots[s].e = e
	m.link(s)
	return s
}

// set reschedules slot s, linking it if it is parked.
func (m *memQueue) set(s int32, due, priority float64) {
	sl := &m.slots[s]
	sl.e.Due, sl.e.Priority = due, priority
	if sl.pos < 0 {
		m.link(s)
	} else if i := int(sl.pos); !m.down(i, len(m.h)) {
		m.up(i)
	}
}

// unlink takes linked slot s out of the heap, leaving it parked.
func (m *memQueue) unlink(s int32) {
	i, n := int(m.slots[s].pos), len(m.h)-1
	if n != i {
		m.swap(i, n)
		if !m.down(i, n) {
			m.up(i)
		}
	}
	m.h = m.h[:n]
	m.slots[s].pos = slotParked
}

// release frees unlinked slot s for reuse.
func (m *memQueue) release(s int32) {
	m.slots[s] = qslot{pos: slotFree}
	m.free = append(m.free, s)
}

func (m *memQueue) head() (Entry, bool) {
	if len(m.h) == 0 {
		return Entry{}, false
	}
	return m.slots[m.h[0]].e, true
}

// popHead unlinks the head and returns it; its slot is left parked.
func (m *memQueue) popHead() Entry {
	s := m.h[0]
	m.unlink(s)
	return m.slots[s].e
}

// topN offers the queue's entries to w in pop order without mutating
// the heap: a best-first walk over the heap array driven by w's index
// heap, which stops at the first refusal — so a shard whose head cannot
// make the list costs one comparison.
func (m *memQueue) topN(w *peekWindow) {
	if len(m.h) == 0 {
		return
	}
	// idxs is a min-heap of positions into m.h, ordered by the entry
	// comparator; the heap-array children of a popped position are the
	// only new candidates for the next-smallest entry.
	idxs := append(w.idxs[:0], 0)
	for len(idxs) > 0 {
		head := idxs[0]
		if !w.offer(m.slots[m.h[head]].e) {
			break
		}
		last := len(idxs) - 1
		idxs[0] = idxs[last]
		idxs = idxs[:last]
		m.idxDown(idxs)
		if l := 2*head + 1; l < len(m.h) {
			idxs = m.idxPush(idxs, l)
		}
		if r := 2*head + 2; r < len(m.h) {
			idxs = m.idxPush(idxs, r)
		}
	}
	w.idxs = idxs[:0]
}

// idxPush adds heap-array position p to the index heap idxs.
func (m *memQueue) idxPush(idxs []int, p int) []int {
	idxs = append(idxs, p)
	for i := len(idxs) - 1; i > 0; {
		par := (i - 1) / 2
		if !m.less(idxs[i], idxs[par]) {
			break
		}
		idxs[i], idxs[par] = idxs[par], idxs[i]
		i = par
	}
	return idxs
}

// idxDown restores the index heap after its root was replaced.
func (m *memQueue) idxDown(idxs []int) {
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < len(idxs) && m.less(idxs[l], idxs[sm]) {
			sm = l
		}
		if r < len(idxs) && m.less(idxs[r], idxs[sm]) {
			sm = r
		}
		if sm == i {
			return
		}
		idxs[i], idxs[sm] = idxs[sm], idxs[i]
		i = sm
	}
}

// each visits every entry in heap-array order — deterministic for a
// given operation history, which is all the callers need (they either
// sort afterwards or don't care).
func (m *memQueue) each(fn func(Entry) error) error {
	for _, s := range m.h {
		if err := fn(m.slots[s].e); err != nil {
			return err
		}
	}
	return nil
}

func (m *memQueue) reset() { *m = memQueue{} }

// memStore is the default, fully in-memory shard store: a memQueue
// whose URL map finds a slot when the entry naming it does not. A
// popped URL's slot stays parked in the map until the reschedule that
// brings it back, or a remove that is not a pop frees it; so a revisit
// — a pop, then a push of the popped entry — looks no URL up: the pop
// finds the URL at the heap's root, and the push trusts the slot the
// popped copy names. A pop whose URL never returns here (the crawl
// ends, or a migration moves its site) leaves its slot parked until
// reset.
type memStore struct {
	memQueue
	byURL map[string]int32 // every queued or parked URL's slot
}

func newMemStore() *memStore { return &memStore{byURL: make(map[string]int32)} }

func (m *memStore) contains(url string) bool {
	s, ok := m.byURL[url]
	return ok && m.slots[s].pos >= 0
}

// put trusts e's slot only if that slot holds e.URL: an entry from
// another queue, a freed and reused slot or a wire-decoded entry (slot
// 0) fails the check and finds its slot by URL instead.
func (m *memStore) put(e Entry) {
	s := e.slot
	ok := uint32(s) < uint32(len(m.slots)) && m.slots[s].pos != slotFree && m.slots[s].e.URL == e.URL
	if !ok {
		s, ok = m.byURL[e.URL]
	}
	if ok {
		m.set(s, e.Due, e.Priority)
		return
	}
	m.byURL[e.URL] = m.insert(e)
}

// remove checks the heap's root before the map: a round pops each
// shard's head entries in order.
func (m *memStore) remove(url string, popped bool) bool {
	var s int32
	ok := len(m.h) > 0 && m.slots[m.h[0]].e.URL == url
	if ok {
		s = m.h[0]
	} else if s, ok = m.byURL[url]; !ok {
		return false
	}
	queued := m.slots[s].pos >= 0
	if queued {
		m.unlink(s)
	}
	if !popped {
		delete(m.byURL, url)
		m.release(s)
	}
	return queued
}

func (m *memStore) reset() {
	m.memQueue.reset()
	m.byURL = make(map[string]int32)
}

func (m *memStore) close() error { return nil }

func (m *memStore) tier() TierStats { return TierStats{Resident: m.size()} }
