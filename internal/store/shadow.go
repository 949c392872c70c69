package store

import (
	"errors"
	"sync"
)

// Shadowed wraps two collections to implement the shadowing update
// discipline of Section 4 ([MJLF84]-style): the crawler writes into a
// separate shadow collection while readers see the current collection
// unchanged; Swap atomically publishes the shadow as the new current
// collection and provides a fresh, empty shadow.
//
// The wrapper makes the freshness trade-off of Figure 8 concrete in code:
// between swaps, newly crawled pages are invisible to readers.
//
// Collections handed out by Current and Shadow are guarded: each call on
// them is tracked, and Swap retires the old current collection instead
// of closing it outright — the underlying Close happens only once the
// last in-flight call (a reader mid-Scan, say) has finished, so a swap
// never surfaces a spurious ErrClosed in a reader that obtained the
// collection moments earlier. Calls *started* after the swap fail with
// ErrClosed, as before.
type Shadowed struct {
	mu      sync.RWMutex
	current *guarded
	shadow  *guarded
	// newShadow constructs the next shadow after a swap.
	newShadow func() (Collection, error)
	swaps     int
}

// guarded wraps a Collection with an in-flight call count, so retirement
// (at swap or close time) can defer the underlying Close until the
// collection is quiescent.
type guarded struct {
	coll Collection

	mu      sync.Mutex
	ops     int
	retired bool // no new calls; close when ops drains to 0
	closed  bool // underlying Close has run
}

var _ Collection = (*guarded)(nil)

// enter admits one call; it fails once the collection is retired.
func (g *guarded) enter() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.retired {
		return ErrClosed
	}
	g.ops++
	return nil
}

// exit retires the underlying collection if this was the last in-flight
// call on a retired wrapper.
func (g *guarded) exit() {
	g.mu.Lock()
	g.ops--
	doClose := g.retired && g.ops == 0 && !g.closed
	if doClose {
		g.closed = true
	}
	g.mu.Unlock()
	if doClose {
		g.coll.Close()
	}
}

// retire blocks new calls and closes the underlying collection — now if
// it is quiescent, otherwise when the last in-flight call exits (that
// deferred Close's error is necessarily dropped; callers who need it
// must quiesce first).
func (g *guarded) retire() error {
	g.mu.Lock()
	if g.retired {
		g.mu.Unlock()
		return nil
	}
	g.retired = true
	idle := g.ops == 0
	if idle {
		g.closed = true
	}
	g.mu.Unlock()
	if idle {
		return g.coll.Close()
	}
	return nil
}

// Put implements Collection.
func (g *guarded) Put(rec PageRecord) error {
	if err := g.enter(); err != nil {
		return err
	}
	defer g.exit()
	return g.coll.Put(rec)
}

// PutBatch implements Collection.
func (g *guarded) PutBatch(recs []PageRecord) error {
	if err := g.enter(); err != nil {
		return err
	}
	defer g.exit()
	return g.coll.PutBatch(recs)
}

// Get implements Collection.
func (g *guarded) Get(url string) (PageRecord, bool, error) {
	if err := g.enter(); err != nil {
		return PageRecord{}, false, err
	}
	defer g.exit()
	return g.coll.Get(url)
}

// Delete implements Collection.
func (g *guarded) Delete(url string) error {
	if err := g.enter(); err != nil {
		return err
	}
	defer g.exit()
	return g.coll.Delete(url)
}

// Len implements Collection; a retired collection reports empty.
func (g *guarded) Len() int {
	if err := g.enter(); err != nil {
		return 0
	}
	defer g.exit()
	return g.coll.Len()
}

// URLs implements Collection; a retired collection reports empty.
func (g *guarded) URLs() []string {
	if err := g.enter(); err != nil {
		return nil
	}
	defer g.exit()
	return g.coll.URLs()
}

// Scan implements Collection. The whole scan is one tracked call: a
// Swap during it defers the underlying Close until the scan returns.
func (g *guarded) Scan(fn func(PageRecord) bool) error {
	if err := g.enter(); err != nil {
		return err
	}
	defer g.exit()
	return g.coll.Scan(fn)
}

// ScanFrom implements Collection with the same one-tracked-call
// contract as Scan: a Swap mid-scan defers the underlying Close until
// the resumed scan returns, so a paged reader never sees ErrClosed for
// a chunk it started before the swap.
func (g *guarded) ScanFrom(after string, fn func(PageRecord) bool) error {
	if err := g.enter(); err != nil {
		return err
	}
	defer g.exit()
	return g.coll.ScanFrom(after, fn)
}

// Close implements Collection (retire semantics: in-flight calls finish
// first).
func (g *guarded) Close() error {
	return g.retire()
}

// NewShadowed builds a shadowed collection pair. current may be nil, in
// which case an empty collection from newShadow serves as the initial
// current collection.
func NewShadowed(current Collection, newShadow func() (Collection, error)) (*Shadowed, error) {
	if newShadow == nil {
		return nil, errors.New("store: nil shadow constructor")
	}
	if current == nil {
		c, err := newShadow()
		if err != nil {
			return nil, err
		}
		current = c
	}
	sh, err := newShadow()
	if err != nil {
		return nil, err
	}
	return &Shadowed{
		current:   &guarded{coll: current},
		shadow:    &guarded{coll: sh},
		newShadow: newShadow,
	}, nil
}

// NewShadowedMem returns a Shadowed pair backed by in-memory collections.
func NewShadowedMem() *Shadowed {
	s, err := NewShadowed(NewMem(), func() (Collection, error) { return NewMem(), nil })
	if err != nil {
		panic(err) // mem constructor cannot fail
	}
	return s
}

// Current returns the collection visible to readers.
func (s *Shadowed) Current() Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.current
}

// Shadow returns the crawler's collection: where writes go before the
// next swap.
func (s *Shadowed) Shadow() Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shadow
}

// View returns the read-only face of the current collection together
// with the swap generation it belongs to. The generation increments at
// every Swap, so a caching reader (the serving plane's hot-set cache)
// keys its entries on it and drops them the moment a swap publishes new
// content. The returned Reader is the op-refcount guard: a read in
// flight across a Swap completes against the collection it started on
// instead of surfacing ErrClosed — but a read started after the Swap on
// a Reader obtained before it does answer ErrClosed. A caller that
// needs one generation across several calls takes Pin instead.
func (s *Shadowed) View() (Reader, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.current, uint64(s.swaps)
}

// Pin is View for a reader that wants one generation for a whole
// request: it enters the current collection once, and every read on the
// returned Reader runs against that generation with no per-call
// bookkeeping — a Swap landing between the pin and a read, or between
// two reads, cannot fail them with ErrClosed, which the unpinned View
// can. release drops the pin (call it exactly once); a generation
// retired meanwhile is closed by its last release. Pins delay only that
// Close, never the Swap itself.
func (s *Shadowed) Pin() (r Reader, gen uint64, release func()) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, gen := s.current, uint64(s.swaps)
	// Under s.mu no Swap can retire g, so this fails only after Close:
	// hand back the guard itself, whose reads all answer ErrClosed.
	if g.enter() != nil {
		return g, gen, func() {}
	}
	return g.coll, gen, g.exit
}

// Swap publishes the shadow as the current collection, retires the old
// current collection (its Close is deferred until in-flight readers
// finish), and installs a fresh shadow. It returns the number of pages
// in the newly published collection.
func (s *Shadowed) Swap() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.current
	s.current = s.shadow
	fresh, err := s.newShadow()
	if err != nil {
		// Roll back: keep serving the old collection.
		s.current = old
		return 0, err
	}
	s.shadow = &guarded{coll: fresh}
	s.swaps++
	if err := old.retire(); err != nil {
		return s.current.Len(), err
	}
	return s.current.Len(), nil
}

// Swaps returns how many swaps have occurred.
func (s *Shadowed) Swaps() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.swaps
}

// Close closes both collections (in-flight calls finish first).
func (s *Shadowed) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err1 := s.current.retire()
	err2 := s.shadow.retire()
	if err1 != nil {
		return err1
	}
	return err2
}
