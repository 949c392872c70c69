package core

import "webevolve/internal/frontier"

// The engine's frontier traffic is round-shaped: pop a round of due
// URLs, fetch, then commit that round's reschedules and drops before
// popping the next round. Against in-process shards each pop and push
// is a method call; against a remote cluster each used to be one or
// two round trips — which made the wire, not the fetches, the remote
// crawl's dominant cost.
//
// frontierRounds folds a whole round's frontier work into one
// operation. A frontier that implements roundApplier (today:
// cluster.RemoteShards, speaking the opRound wire op) applies the
// round's pops, drops and reschedules server-side and returns the
// next pop candidates — the ordered prefix of its queue — in the same
// exchange, one round trip per server per dispatch round. The engine
// then pops the next round locally from the merged candidate lists,
// with zero additional wire traffic.
//
// Determinism: the merged candidates are consumed with exactly the
// in-process comparator (frontier.EntryBefore), and the merge is an
// exact prefix of the global queue order — per-server lists are
// ordered, and entries a truncated server did not return all order
// after the last entry it did return (the bound below). A pop is
// served from the cache only while it orders at or before the bound;
// past it, the cache refreshes. The pop sequence is therefore
// bit-identical to in-process shards, which is what keeps the remote
// cells of cluster's TestInvarianceMatrix green with the pipeline on.
//
// The fast path requires a zero politeness gap (the engine's steady
// rounds never claim shards, and candidate merging cannot see remote
// politeness deadlines): with a gap configured, every call falls
// through to the per-op ShardSet path, exactly as before.

// roundApplier is the optional frontier fast path. ApplyRound applies,
// in order: pops (entries the engine already consumed from candidate
// lists), removes (dropped pages; absent URLs are fine), then pushes —
// and returns the frontier's next peekMax pop candidates in queue
// order. ok is false when the implementation cannot serve the fast
// path (politeness gap configured, or transport already failed); the
// caller then uses the plain ShardSet ops.
//
// bound is the exactness limit of the returned candidates: entries not
// returned are guaranteed to order after it (boundOK false means the
// list is complete and cands is the entire queue). A pop must not be
// served from the cache once its head orders after the bound.
type roundApplier interface {
	ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) (cands []frontier.Entry, bound frontier.Entry, boundOK bool, ok bool)
}

// frontierRounds is the engine's view of its frontier: direct ShardSet
// calls, or the batched round protocol when available.
type frontierRounds struct {
	coll frontier.ShardSet
	ra   roundApplier // nil: direct mode
	max  int          // candidates requested per refresh

	active  bool // cands/bound hold a valid queue prefix
	cands   []frontier.Entry
	bound   frontier.Entry
	bounded bool     // a bound exists (some server truncated its list)
	pops    []string // candidates consumed since the last ApplyRound
}

// newFrontierRounds wires the engine's frontier access. The fast path
// engages only when the frontier offers it and the configuration keeps
// a zero politeness gap. A peekMax of one dispatch round always covers
// a round: the server whose last candidate sets the bound returned all
// peekMax of its own, so the exact merged prefix holds at least that
// many.
func newFrontierRounds(coll frontier.ShardSet, peekMax int, politeness float64) *frontierRounds {
	r := &frontierRounds{coll: coll, max: peekMax}
	if ra, ok := coll.(roundApplier); ok && politeness == 0 {
		r.ra = ra
	}
	return r
}

// popDue removes and returns the globally earliest entry due at or
// before now — the engine round pop.
func (r *frontierRounds) popDue(now float64) (frontier.Entry, bool) {
	if r.ra == nil {
		return r.coll.PopDue(now)
	}
	for attempt := 0; ; attempt++ {
		if !r.active {
			if !r.refresh() {
				return r.coll.PopDue(now) // fast path refused; fall through
			}
		}
		if len(r.cands) > 0 {
			head := r.cands[0]
			if !r.bounded || !frontier.EntryBefore(r.bound, head) {
				// head is within the exact prefix: trust it.
				if head.Due > now {
					return frontier.Entry{}, false
				}
				r.cands = r.cands[1:]
				r.pops = append(r.pops, head.URL)
				return head, true
			}
		} else if !r.bounded {
			return frontier.Entry{}, false // complete and empty: drained
		}
		// Consumed past the known prefix; refetch a fresh one. A fresh
		// refresh always yields a trustworthy head, so this cannot
		// loop: the global head is at or before every server's last
		// returned entry.
		r.active = false
		if attempt > 0 {
			// Defensive: a misbehaving implementation that keeps
			// truncating ahead of its bound must not hang the engine.
			return r.coll.PopDue(now)
		}
	}
}

// commitRound ships a round's frontier mutations: drops and
// reschedules, plus (fast path) the pops consumed from the candidate
// cache. wantCands keeps the candidate cache primed for an immediately
// following pop (the steady loop); URL-list driven loops (batch mode)
// pass false and skip the peek work.
func (r *frontierRounds) commitRound(removes []string, pushes []frontier.Entry, wantCands bool) {
	if r.ra == nil {
		for _, u := range removes {
			r.coll.Remove(u)
		}
		if len(pushes) > 0 {
			r.coll.PushBatch(pushes)
		}
		return
	}
	max := r.max
	if !wantCands {
		max = 0
	}
	cands, bound, bounded, ok := r.ra.ApplyRound(r.pops, removes, pushes, max)
	r.pops = r.pops[:0]
	if !ok {
		// Fast path refused (e.g. politeness configured server-side):
		// re-issue through the plain ops so nothing is lost, and stop
		// using the fast path.
		r.ra = nil
		r.active = false
		for _, u := range removes {
			r.coll.Remove(u)
		}
		if len(pushes) > 0 {
			r.coll.PushBatch(pushes)
		}
		return
	}
	r.cands, r.bound, r.bounded = cands, bound, bounded
	r.active = wantCands
}

// refresh reprimes the candidate cache (shipping any pending pops).
// It reports false when the fast path refused and has been disabled.
func (r *frontierRounds) refresh() bool {
	r.commitRound(nil, nil, true)
	return r.ra != nil
}

// flush ships pending pops and invalidates the candidate cache. It
// must run before any frontier access that bypasses this adapter — the
// ranking pass's URLs/Len, the shadow swap, batch-mode
// URL snapshots, all of which reach it through Crawler.quiesce — so
// the server state is caught up and later rounds re-peek fresh
// candidates.
func (r *frontierRounds) flush() {
	if r.ra == nil {
		return
	}
	if len(r.pops) > 0 {
		r.commitRound(nil, nil, false)
	}
	r.active = false
}

// nextEvent is NextEvent through the cache when possible: with a zero
// politeness gap the next poppable instant is the queue head's due
// time, which the cache knows without another fan-out.
func (r *frontierRounds) nextEvent() (float64, bool) {
	if r.ra != nil && r.active {
		if len(r.cands) > 0 {
			head := r.cands[0]
			if !r.bounded || !frontier.EntryBefore(r.bound, head) {
				return head.Due, true
			}
		} else if !r.bounded {
			return 0, false // complete and empty
		}
	}
	return r.coll.NextEvent()
}
