// Package urlid interns URLs into dense int32 IDs, so that state kept
// per URL can live in flat slices indexed by ID instead of maps keyed by
// the URL string.
package urlid

// Table maps every URL it is given to a dense ID — 0, 1, 2, … in order
// of first arrival — and back. It is append-only: an ID names its URL
// for the table's life and is never reused, so per-ID slices only grow.
// The zero Table is empty. A Table is not safe for concurrent use; each
// owner keeps its own behind the lock that guards its per-ID state.
type Table struct {
	ids  map[string]int32
	urls []string
}

// Intern returns url's ID, giving it the next one if the table has not
// seen it, and reports whether it did.
func (t *Table) Intern(url string) (id int32, isNew bool) {
	if id, ok := t.ids[url]; ok {
		return id, false
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id = int32(len(t.urls))
	t.ids[url] = id
	t.urls = append(t.urls, url)
	return id, true
}

// Lookup returns url's ID if the table has one.
func (t *Table) Lookup(url string) (int32, bool) {
	id, ok := t.ids[url]
	return id, ok
}

// URL returns the URL with the given ID.
func (t *Table) URL(id int32) string { return t.urls[id] }
