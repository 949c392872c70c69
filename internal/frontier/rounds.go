package frontier

import "errors"

// A crawl's frontier traffic is round-shaped: pop a round of due URLs,
// fetch, then commit that round's reschedules and drops before popping
// the next round. Against a remote cluster each pop and push used to be
// one or two round trips — which made the wire, not the fetches, the
// remote crawl's dominant cost.
//
// Rounds folds a whole round's frontier work into one ApplyRound, the
// only mutating frontier call of its two users: the simulated engine
// (core.Crawler) and the live crawler (cmd/webcrawl). The frontier
// (in-process Sharded, or cluster.RemoteShards speaking the opRound
// wire op) applies the round's pops, drops and reschedules and returns
// the next pop candidates — the ordered prefix of its queue — in the
// same exchange, one round trip per server per dispatch round. The
// caller then pops the next round locally from the candidates, with
// zero additional wire traffic.
//
// Determinism: the candidates are consumed with exactly the in-process
// comparator (EntryBefore), and they are an exact prefix of the global
// queue order — per-server lists are ordered, and entries a truncated
// server did not return all order after the last entry it did return
// (the bound). A pop is served from the cache only while it orders at
// or before the bound; past it, the cache refreshes. The pop sequence
// is therefore bit-identical to popping one unpartitioned queue, which
// is what keeps the cells of cluster's TestInvarianceMatrix green with
// the engine's pipeline on.
//
// The round needs a zero politeness gap: candidates cannot see
// politeness deadlines. A frontier with a gap refuses the round, and
// the refusal is the adapter's sticky error (ErrRoundRefused). Live
// crawls space requests to one host in the fetcher instead.

var (
	// ErrRoundRefused is the adapter's sticky error when the frontier
	// refuses the round protocol (a politeness gap is configured).
	ErrRoundRefused = errors.New("frontier: the frontier refused the round protocol " +
		"(a politeness gap is configured; rounds run only with a zero gap)")
	// ErrRoundOverrun is the adapter's sticky error when a fresh
	// candidate prefix has its head past its own bound, which breaks the
	// round contract.
	ErrRoundOverrun = errors.New("frontier: a fresh round's head orders past its own bound")
)

// Rounds is a crawl's view of its frontier: a candidate cache over
// ApplyRound. It has one driver (a single goroutine), like ApplyRound
// itself.
type Rounds struct {
	coll ShardSet
	max  int // candidates requested per refresh

	active  bool // cands/bound hold a valid queue prefix
	cands   []Entry
	bound   Entry
	bounded bool     // a bound exists (some server truncated its list)
	pops    []string // candidates consumed since the last ApplyRound

	// err is sticky: a refused round or an overrun refresh. Once set,
	// nothing more is shipped and the frontier reads as drained.
	err error
}

// NewRounds wires a crawl's frontier access. A peekMax of one dispatch
// round always covers a round: the server whose last candidate sets the
// bound returned all peekMax of its own, so the exact merged prefix
// holds at least that many.
func NewRounds(coll ShardSet, peekMax int) *Rounds {
	return &Rounds{coll: coll, max: peekMax}
}

// Err returns the adapter's sticky error, if any.
func (r *Rounds) Err() error { return r.err }

// head returns the queue's earliest entry from the candidate cache,
// refreshing the cache when it is stale or consumed past its bound. ok
// is false when the queue is empty or the adapter has failed.
func (r *Rounds) head() (Entry, bool) {
	for refreshed := false; r.err == nil; refreshed = true {
		if r.active {
			if len(r.cands) > 0 {
				if h := r.cands[0]; !r.bounded || !EntryBefore(r.bound, h) {
					return h, true // within the exact prefix: trust it
				}
			} else if !r.bounded {
				return Entry{}, false // complete and empty: drained
			}
			// Consumed past the known prefix. A fresh prefix always has a
			// trustworthy head — the global head orders at or before every
			// server's last returned entry — so a second overrun means the
			// frontier breaks the round contract.
			if refreshed {
				r.err = ErrRoundOverrun
				break
			}
		}
		r.Commit(nil, nil, true)
	}
	return Entry{}, false
}

// PopDue removes and returns the globally earliest entry due at or
// before now. The removal ships with the next Commit.
func (r *Rounds) PopDue(now float64) (Entry, bool) {
	h, ok := r.head()
	if !ok || h.Due > now {
		return Entry{}, false
	}
	r.cands = r.cands[1:]
	r.pops = append(r.pops, h.URL)
	return h, true
}

// NextEvent is the next poppable instant: with a zero politeness gap,
// the queue head's due time.
func (r *Rounds) NextEvent() (float64, bool) {
	h, ok := r.head()
	return h.Due, ok
}

// Commit ships a round's frontier mutations: the pops consumed from the
// candidate cache, drops and reschedules. wantCands keeps the candidate
// cache primed for an immediately following pop (a steady loop);
// URL-list driven loops (the engine's batch mode) pass false and skip
// the peek work. It returns the adapter's sticky error.
func (r *Rounds) Commit(removes []string, pushes []Entry, wantCands bool) error {
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
		r.err = ErrRoundRefused
		r.active = false
		return r.err
	}
	r.cands, r.bound, r.bounded = cands, bound, bounded
	r.active = wantCands
	return nil
}

// Flush ships pending pops and invalidates the candidate cache. It must
// run before any frontier access that bypasses this adapter — the
// engine's ranking pass (URLs/Len), shadow swap and batch-mode URL
// snapshots, all of which reach it through Crawler.quiesce — so the
// frontier is caught up and later rounds re-peek fresh candidates. It
// returns the adapter's sticky error.
func (r *Rounds) Flush() error {
	if len(r.pops) > 0 {
		r.Commit(nil, nil, false)
	}
	r.active = false
	return r.err
}
