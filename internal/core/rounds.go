package core

import (
	"errors"

	"webevolve/internal/frontier"
)

// The engine's frontier traffic is round-shaped: pop a round of due
// URLs, fetch, then commit that round's reschedules and drops before
// popping the next round. Against a remote cluster each pop and push
// used to be one or two round trips — which made the wire, not the
// fetches, the remote crawl's dominant cost.
//
// frontierRounds folds a whole round's frontier work into one
// ApplyRound, the engine's only mutating frontier call. The frontier
// (in-process frontier.Sharded, or cluster.RemoteShards speaking the
// opRound wire op) applies the round's pops, drops and reschedules and
// returns the next pop candidates — the ordered prefix of its queue —
// in the same exchange, one round trip per server per dispatch round.
// The engine then pops the next round locally from the candidates,
// with zero additional wire traffic.
//
// Determinism: the candidates are consumed with exactly the in-process
// comparator (frontier.EntryBefore), and they are an exact prefix of
// the global queue order — per-server lists are ordered, and entries a
// truncated server did not return all order after the last entry it did
// return (the bound). A pop is served from the cache only while it
// orders at or before the bound; past it, the cache refreshes. The pop
// sequence is therefore bit-identical to popping one unpartitioned
// queue, which is what keeps the cells of cluster's TestInvarianceMatrix
// green with the pipeline on.
//
// The round needs a zero politeness gap: candidates cannot see
// politeness deadlines. A frontier with a gap refuses the round, and
// the refusal ends the run (errRoundRefused).

var (
	errRoundRefused = errors.New("core: frontier refused the round protocol " +
		"(a politeness gap is configured; the engine runs only with a zero gap)")
	errRoundOverrun = errors.New("core: frontier: a fresh round's head orders past its own bound")
)

// frontierRounds is the engine's view of its frontier: a candidate
// cache over ApplyRound.
type frontierRounds struct {
	coll frontier.ShardSet
	max  int // candidates requested per refresh

	active  bool // cands/bound hold a valid queue prefix
	cands   []frontier.Entry
	bound   frontier.Entry
	bounded bool     // a bound exists (some server truncated its list)
	pops    []string // candidates consumed since the last ApplyRound

	// err is sticky: a refused round or an overrun refresh. Once set,
	// nothing more is shipped and the frontier reads as drained.
	err error
}

// newFrontierRounds wires the engine's frontier access. A peekMax of
// one dispatch round always covers a round: the server whose last
// candidate sets the bound returned all peekMax of its own, so the
// exact merged prefix holds at least that many.
func newFrontierRounds(coll frontier.ShardSet, peekMax int) *frontierRounds {
	return &frontierRounds{coll: coll, max: peekMax}
}

// head returns the queue's earliest entry from the candidate cache,
// refreshing the cache when it is stale or consumed past its bound. ok
// is false when the queue is empty or the adapter has failed.
func (r *frontierRounds) head() (frontier.Entry, bool) {
	for refreshed := false; r.err == nil; refreshed = true {
		if r.active {
			if len(r.cands) > 0 {
				if h := r.cands[0]; !r.bounded || !frontier.EntryBefore(r.bound, h) {
					return h, true // within the exact prefix: trust it
				}
			} else if !r.bounded {
				return frontier.Entry{}, false // complete and empty: drained
			}
			// Consumed past the known prefix. A fresh prefix always has a
			// trustworthy head — the global head orders at or before every
			// server's last returned entry — so a second overrun means the
			// frontier breaks the round contract.
			if refreshed {
				r.err = errRoundOverrun
				break
			}
		}
		r.commitRound(nil, nil, true)
	}
	return frontier.Entry{}, false
}

// popDue removes and returns the globally earliest entry due at or
// before now — the engine round pop.
func (r *frontierRounds) popDue(now float64) (frontier.Entry, bool) {
	h, ok := r.head()
	if !ok || h.Due > now {
		return frontier.Entry{}, false
	}
	r.cands = r.cands[1:]
	r.pops = append(r.pops, h.URL)
	return h, true
}

// nextEvent is the next poppable instant: with a zero politeness gap,
// the queue head's due time.
func (r *frontierRounds) nextEvent() (float64, bool) {
	h, ok := r.head()
	return h.Due, ok
}

// commitRound ships a round's frontier mutations: the pops consumed
// from the candidate cache, drops and reschedules. wantCands keeps the
// candidate cache primed for an immediately following pop (the steady
// loop); URL-list driven loops (batch mode) pass false and skip the
// peek work. It returns the adapter's sticky error.
func (r *frontierRounds) commitRound(removes []string, pushes []frontier.Entry, wantCands bool) error {
	if r.err != nil {
		return r.err
	}
	max := r.max
	if !wantCands {
		max = 0
	}
	cands, bound, bounded, ok := r.coll.ApplyRound(r.pops, removes, pushes, max)
	r.pops = r.pops[:0]
	if !ok {
		r.err = errRoundRefused
		r.active = false
		return r.err
	}
	r.cands, r.bound, r.bounded = cands, bound, bounded
	r.active = wantCands
	return nil
}

// flush ships pending pops and invalidates the candidate cache. It
// must run before any frontier access that bypasses this adapter — the
// ranking pass's URLs/Len, the shadow swap, batch-mode
// URL snapshots, all of which reach it through Crawler.quiesce — so
// the frontier is caught up and later rounds re-peek fresh candidates.
// It returns the adapter's sticky error.
func (r *frontierRounds) flush() error {
	if len(r.pops) > 0 {
		r.commitRound(nil, nil, false)
	}
	r.active = false
	return r.err
}
