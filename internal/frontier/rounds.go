package frontier

import (
	"errors"
	"sort"
)

// A crawl's frontier traffic is round-shaped: pop a round of due URLs,
// fetch, then commit that round's reschedules and drops before popping
// the next round. Against a remote cluster each pop and push used to be
// one or two round trips — which made the wire, not the fetches, the
// remote crawl's dominant cost.
//
// Rounds folds a round's frontier work into ApplyRound, the only
// mutating frontier call of its two users: the simulated engine
// (core.Crawler) and the live crawler (cmd/webcrawl). The frontier
// (in-process Sharded, or cluster.RemoteShards speaking the opRound
// wire op) applies the shipped pops, drops and reschedules and returns
// the next pop candidates — the ordered prefix of its queue — in the
// same exchange. The caller then pops from the candidates locally, with
// zero additional wire traffic.
//
// A round's commit ships only when the candidate cache could no longer
// answer exactly without it. While the cache is bounded and every push
// orders strictly after the bound, no pop can reach those pushes before
// the cache runs out, so the commit waits in the adapter (its removes
// drop their URLs from the cache at once) and rides the next exchange:
// the refresh that follows the cache past its bound, a Flush, or a
// commit that cannot wait. What waits ships in one ApplyRound, each
// kind in its original order; since ApplyRound applies pops, then
// removes, then pushes, a remove naming a URL with a waiting push
// first ships what waits on its own. A remote frontier returns several
// rounds' worth of candidates per exchange, so one exchange with each
// server feeds several dispatch rounds; the in-process frontier returns
// one round's worth, and its commits simply ride the next refresh.
//
// Determinism: the candidates are consumed with exactly the in-process
// comparator (EntryBefore), and they are an exact prefix of the global
// queue order — per-server lists are ordered, and entries a truncated
// server did not return all order after the last entry it did return
// (the bound). The cache keeps only the entries at or before the bound;
// past it, the cache refreshes. A waiting push orders after the bound
// and names no cached URL, and a waiting remove has left the cache, so
// the cache stays exactly the queue's entries at or before the bound.
// The pop sequence is therefore bit-identical to popping one
// unpartitioned queue that every commit reached at once, which is what
// keeps the cells of cluster's TestInvarianceMatrix green with the
// engine's pipeline on (TestRoundsDeferralMatchesEagerCommits pins the
// adapter against such a queue).
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

	active  bool    // cands/bound hold a valid queue prefix
	cands   []Entry // the queue's entries at or before bound, in order
	bound   Entry
	bounded bool // a bound exists (some server truncated its list)

	// The ops not shipped yet: the candidates popped since the last
	// ApplyRound and the removes and pushes of the commits waiting
	// behind them, each in the order made.
	pops    []string
	removes []string
	pushes  []Entry

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
// refreshing the cache when it is stale or consumed up to its bound. ok
// is false when the queue is empty or the adapter has failed.
func (r *Rounds) head() (Entry, bool) {
	for refreshed := false; r.err == nil; refreshed = true {
		if r.active {
			if len(r.cands) > 0 {
				return r.cands[0], true
			}
			if !r.bounded {
				return Entry{}, false // complete and empty: drained
			}
			// Consumed up to the bound. A fresh prefix always has a
			// trustworthy head — the global head orders at or before every
			// server's last returned entry — so an empty fresh prefix
			// means the frontier breaks the round contract.
			if refreshed {
				r.err = ErrRoundOverrun
				break
			}
		}
		r.ship(nil, nil, true)
	}
	return Entry{}, false
}

// PopDue removes and returns the globally earliest entry due at or
// before now. The removal ships with the next exchange.
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

// Commit makes a round's frontier mutations: the pops consumed from the
// candidate cache, drops and reschedules. wantCands keeps the candidate
// cache primed for an immediately following pop (a steady loop), and
// lets the commit wait for a later exchange while the cache stays exact
// without it (see the file comment). URL-list driven loops (the
// engine's batch mode) pass false: the commit ships at once, with
// everything waiting, and skips the peek work. It returns the adapter's
// sticky error.
func (r *Rounds) Commit(removes []string, pushes []Entry, wantCands bool) error {
	if r.err != nil {
		return r.err
	}
	for _, u := range removes {
		if find(r.pushes, u) >= 0 {
			// ApplyRound removes before it pushes: the waiting pushes
			// must land before these removes do.
			if r.ship(nil, nil, false); r.err != nil {
				return r.err
			}
			break
		}
	}
	if !wantCands || !r.canWait(pushes) {
		r.ship(removes, pushes, wantCands)
		return r.err
	}
	for _, u := range removes {
		if i := find(r.cands, u); i >= 0 {
			r.cands = append(r.cands[:i], r.cands[i+1:]...)
		}
	}
	r.removes = append(r.removes, removes...)
	r.pushes = append(r.pushes, pushes...)
	return nil
}

// canWait reports whether a commit of pushes may wait: the cache is
// active and bounded, every push orders strictly after the bound, and
// none names a cached URL.
func (r *Rounds) canWait(pushes []Entry) bool {
	if !r.active || !r.bounded {
		return false
	}
	for _, p := range pushes {
		if !EntryBefore(r.bound, p) || find(r.cands, p.URL) >= 0 {
			return false
		}
	}
	return true
}

// find returns the index of the entry of es naming url, or -1.
func find(es []Entry, url string) int {
	for i := range es {
		if es[i].URL == url {
			return i
		}
	}
	return -1
}

// ship sends everything waiting, followed by removes and pushes, in one
// ApplyRound, and primes the candidate cache if wantCands.
func (r *Rounds) ship(removes []string, pushes []Entry, wantCands bool) {
	if len(r.removes)+len(r.pushes) > 0 {
		r.removes = append(r.removes, removes...)
		r.pushes = append(r.pushes, pushes...)
		removes, pushes = r.removes, r.pushes
	}
	max := r.max
	if !wantCands {
		max = 0
	}
	cands, bound, bounded, ok := r.coll.ApplyRound(r.pops, removes, pushes, max)
	r.pops, r.removes, r.pushes = r.pops[:0], r.removes[:0], r.pushes[:0]
	if !ok {
		r.err = ErrRoundRefused
		r.active = false
		return
	}
	// Keep the exact prefix only: entries past the bound are never
	// served. The list is the adapter's until the next ApplyRound, which
	// always replaces it, so a waiting remove may cut it in place.
	n := len(cands)
	if bounded {
		n = sort.Search(n, func(i int) bool { return EntryBefore(bound, cands[i]) })
	}
	r.cands = cands[:n]
	r.bound, r.bounded = bound, bounded
	r.active = wantCands
}

// Flush ships everything waiting and invalidates the candidate cache. It
// must run before any frontier access that bypasses this adapter — the
// engine's ranking pass (URLs/Len), shadow swap and batch-mode URL
// snapshots, all of which reach it through Crawler.quiesce — so the
// frontier is caught up and later rounds re-peek fresh candidates. It
// returns the adapter's sticky error.
func (r *Rounds) Flush() error {
	if r.err == nil && len(r.pops)+len(r.removes)+len(r.pushes) > 0 {
		r.ship(nil, nil, false)
	}
	r.active = false
	return r.err
}
