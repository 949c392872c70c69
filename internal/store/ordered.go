package store

import (
	"sort"
	"sync"
)

// sortedKeys is the ordered view of a backend's live keys, and the
// implementation of every sorted read (URLs, URLsFrom, Scan, ScanFrom)
// of Mem and Disk, which embed it. The backend's own map stays the
// truth; this type keeps a sorted slice of its keys that is immutable
// once published — a fold builds a new one — so an ordered read takes
// the slice under the backend's lock, binary-searches its cursor and
// walks forward with the lock released.
//
// Maintenance is lazy. A key becoming live or dead is noted in O(1);
// the next ordered read folds the notes in with one sort of the notes
// and one merge. Overwrites of a live key — the in-place crawl's common
// case — never touch the index, and neither does a read of a collection
// nobody is adding keys to (a published shadow generation).
//
// touch, from and close run under the owner's lock, taken by the owner;
// the exported reads take it themselves, for the seek only.
type sortedKeys struct {
	mu   sync.Locker                                // the owner's lock, exclusive mode
	live func(key string) bool                      // is key in the owner's map right now
	get  func(key string) (PageRecord, bool, error) // the owner's point read (takes mu itself)

	closed  bool     // set by close; the owner's other methods check it too
	sorted  []string // never written in place once published
	touched []string // keys whose liveness changed since the last fold
}

// foldSlack bounds the notes between ordered reads: past it (or past
// the sorted set's own size) a fold runs from touch, so put/delete
// churn that nobody reads in order cannot grow the notes without bound
// and a bulk load folds a logarithmic number of times.
const foldSlack = 1024

// touch notes that key was just added to or removed from the owner's
// map. Which of the two it was is not recorded: fold asks the map.
func (k *sortedKeys) touch(key string) {
	k.touched = append(k.touched, key)
	if len(k.touched) > len(k.sorted)+foldSlack {
		k.fold()
	}
}

// from returns the live keys strictly after the given key (empty: all
// of them) in ascending order. The result is shared: callers must not
// modify it.
func (k *sortedKeys) from(after string) []string {
	if len(k.touched) > 0 {
		k.fold()
	}
	i := sort.SearchStrings(k.sorted, after)
	if i < len(k.sorted) && k.sorted[i] == after {
		i++
	}
	return k.sorted[i:]
}

// fold merges the touched keys into a fresh sorted slice: each touched
// key is dropped from the old slice and re-added iff the map holds it.
func (k *sortedKeys) fold() {
	sort.Strings(k.touched)
	old := k.sorted
	out := make([]string, 0, len(old)+len(k.touched))
	for j, key := range k.touched {
		if j > 0 && key == k.touched[j-1] {
			continue
		}
		n := sort.SearchStrings(old, key)
		out = append(out, old[:n]...)
		old = old[n:]
		if len(old) > 0 && old[0] == key {
			old = old[1:]
		}
		if k.live(key) {
			out = append(out, key)
		}
	}
	k.sorted, k.touched = append(out, old...), nil
}

// close makes the ordered reads answer ErrClosed (nothing, for the two
// that return no error) and drops the slices.
func (k *sortedKeys) close() {
	k.closed, k.sorted, k.touched = true, nil, nil
}

// keysFrom is from under the owner's lock: the lock is held for a fold,
// when keys were added or deleted since the last ordered read, and a
// binary search.
func (k *sortedKeys) keysFrom(after string) ([]string, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return nil, ErrClosed
	}
	return k.from(after), nil
}

// URLs implements Collection.
func (k *sortedKeys) URLs() []string {
	keys, _ := k.keysFrom("")
	return append(make([]string, 0, len(keys)), keys...)
}

// URLsFrom visits the stored URLs strictly after the given URL in
// ascending order — ScanFrom's key-only sibling, with no record reads:
// a chunked consumer (the store server's wire URL listing) pays
// O(log n + k) per chunk.
func (k *sortedKeys) URLsFrom(after string, fn func(string) bool) {
	keys, _ := k.keysFrom(after)
	for _, key := range keys {
		if !fn(key) {
			return
		}
	}
}

// Scan implements Collection.
func (k *sortedKeys) Scan(fn func(PageRecord) bool) error {
	return k.ScanFrom("", fn)
}

// ScanFrom is Scan resuming strictly after the given URL (empty scans
// everything): a binary search for the cursor under the lock, then each
// record read on its own as Get does — O(log n + k) for a consumer
// stopping after k records (a paged listing, the store server's wire
// scan), the lock held for none of the reads. The keys are those live
// at the start; one deleted since is skipped, one overwritten since
// reads as its newer version, keys added since are not visited. On Disk
// a Compact under the scan is harmless (every read resolves its key
// afresh) and a Close ends it with ErrClosed.
func (k *sortedKeys) ScanFrom(after string, fn func(PageRecord) bool) error {
	return scanFrom(k, after, k.get, func(_ string, rec PageRecord) bool { return fn(rec) })
}

// scanFrom is the loop behind every ordered scan, ScanFrom's guarantees
// included: each key of k after the given one is read with read, on its
// own and with the lock released, and handed to fn with what it read
// until fn returns false; a key read as missing is skipped.
func scanFrom[V any](k *sortedKeys, after string, read func(key string) (V, bool, error), fn func(key string, v V) bool) error {
	keys, err := k.keysFrom(after)
	if err != nil {
		return err
	}
	for _, key := range keys {
		v, ok, err := read(key)
		if err != nil {
			return err
		}
		if ok && !fn(key, v) {
			return nil
		}
	}
	return nil
}
