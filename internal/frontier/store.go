package frontier

import "container/heap"

// shardStore is one shard's entry storage, behind which the queue keeps
// either a plain in-memory map (memStore, the default) or a disk-backed
// tier (diskStore) that materializes only the due-soon head in RAM.
//
// Every method is called with the owning shard's mutex held, so
// implementations need no locking of their own. The contract that makes
// the two tiers interchangeable is pop-order equivalence: head, popHead
// and topN must return exactly what a single entryHeap over the same
// entry set would — the invariance tests compare the tiers bit for bit.
type shardStore interface {
	// size returns the number of stored entries.
	size() int
	// contains reports whether url is stored.
	contains(url string) bool
	// put inserts or reschedules e.
	put(e Entry)
	// remove deletes url, reporting whether it was present.
	remove(url string) bool
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

// memQueue is the heap+map priority queue that stores a shard's
// entries: the in-memory tier uses it directly, and the disk tier uses
// one as the resident head of its log. Pop order is Due ascending, then
// Priority descending, then URL — entryHeap's order.
type memQueue struct {
	h     entryHeap
	byURL map[string]*Entry
}

func newMemQueue() *memQueue { return &memQueue{byURL: make(map[string]*Entry)} }

func (m *memQueue) size() int { return len(m.h) }

func (m *memQueue) contains(url string) bool {
	_, ok := m.byURL[url]
	return ok
}

func (m *memQueue) put(e Entry) {
	if old, ok := m.byURL[e.URL]; ok {
		old.Due = e.Due
		old.Priority = e.Priority
		heap.Fix(&m.h, old.index)
		return
	}
	ne := &Entry{URL: e.URL, Due: e.Due, Priority: e.Priority}
	heap.Push(&m.h, ne)
	m.byURL[e.URL] = ne
}

func (m *memQueue) remove(url string) bool {
	e, ok := m.byURL[url]
	if !ok {
		return false
	}
	heap.Remove(&m.h, e.index)
	delete(m.byURL, url)
	return true
}

func (m *memQueue) head() (Entry, bool) {
	if len(m.h) == 0 {
		return Entry{}, false
	}
	return *m.h[0], true
}

func (m *memQueue) popHead() Entry {
	e := heap.Pop(&m.h).(*Entry)
	delete(m.byURL, e.URL)
	return *e
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
		if !w.offer(*m.h[head]) {
			break
		}
		last := len(idxs) - 1
		idxs[0] = idxs[last]
		idxs = idxs[:last]
		m.h.idxDown(idxs)
		if l := 2*head + 1; l < len(m.h) {
			idxs = m.h.idxPush(idxs, l)
		}
		if r := 2*head + 2; r < len(m.h) {
			idxs = m.h.idxPush(idxs, r)
		}
	}
	w.idxs = idxs[:0]
}

// idxPush adds heap-array position p to the index heap idxs.
func (h entryHeap) idxPush(idxs []int, p int) []int {
	idxs = append(idxs, p)
	for i := len(idxs) - 1; i > 0; {
		par := (i - 1) / 2
		if !h.Less(idxs[i], idxs[par]) {
			break
		}
		idxs[i], idxs[par] = idxs[par], idxs[i]
		i = par
	}
	return idxs
}

// idxDown restores the index heap after its root was replaced.
func (h entryHeap) idxDown(idxs []int) {
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < len(idxs) && h.Less(idxs[l], idxs[sm]) {
			sm = l
		}
		if r < len(idxs) && h.Less(idxs[r], idxs[sm]) {
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
	for _, e := range m.h {
		if err := fn(*e); err != nil {
			return err
		}
	}
	return nil
}

func (m *memQueue) reset() {
	m.h = nil
	m.byURL = make(map[string]*Entry)
}

// memStore is the default, fully in-memory shard store: a memQueue and
// nothing else. Zero behavior change from the pre-tier frontier.
type memStore struct{ memQueue }

func newMemStore() *memStore { return &memStore{memQueue{byURL: make(map[string]*Entry)}} }

func (m *memStore) close() error { return nil }

func (m *memStore) tier() TierStats { return TierStats{Resident: m.size()} }
