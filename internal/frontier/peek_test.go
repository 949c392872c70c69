package frontier

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// queueModel is the peek contract as data: the queue is its entries,
// and a peek of n is the first n of them sorted.
type queueModel map[string]Entry

// apply commits a round as ApplyRound does: pops and removes, then
// pushes (a push of a popped URL reschedules it).
func (m queueModel) apply(pops, removes []string, pushes []Entry) {
	for _, u := range pops {
		delete(m, u)
	}
	for _, u := range removes {
		delete(m, u)
	}
	for _, e := range pushes {
		m[e.URL] = e
	}
}

func (m queueModel) sorted() []Entry {
	out := make([]Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return entryBefore(out[i], out[j]) })
	return out
}

// TestPeekMatchesModel drives each tier through one randomized
// crawl-shaped history — rounds of pops from the candidate prefix,
// drops, reschedules and new pages, with (due, priority) drawn from a
// handful of values so URL tie-breaks and the disk tier's tie-group
// promotion decide most positions — and holds every peek to the model.
// The history depends only on the seed, so the mem and disk twins see
// the same one; the disk tier keeps most of it spilled, which must not
// show in any result.
func TestPeekMatchesModel(t *testing.T) {
	tiers := []struct {
		name string
		open func() *Sharded
	}{
		{"mem", func() *Sharded { return NewSharded(8) }},
		{"disk", func() *Sharded { return openDiskSharded(t, 8, 64) }},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				peekAgainstModel(t, tier.open(), seed)
			}
		})
	}
}

func peekAgainstModel(t *testing.T, q *Sharded, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	model := queueModel{}
	// prefix requires got to be exactly the first n entries of the
	// sorted queue.
	prefix := func(what string, got []Entry, n int, all []Entry) {
		t.Helper()
		want := all[:min(max(n, 0), len(all))]
		if len(got) != len(want) {
			t.Fatalf("seed %d: %s: %d entries, model %d", seed, what, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("seed %d: %s[%d] = %+v, model %+v", seed, what, i, got[i], want[i])
			}
		}
	}
	var pushes []Entry
	for i := 0; i < 600; i++ {
		pushes = append(pushes, Entry{URL: urlOn(i%29, i), Due: float64(rng.Intn(4)), Priority: float64(rng.Intn(2))})
	}
	nextPage := len(pushes)
	var pops, removes []string
	for round := 0; round < 100; round++ {
		model.apply(pops, removes, pushes)
		all := model.sorted()
		// Peek sizes on both sides of the queue's length, where a
		// truncated peek and a complete one meet.
		peeks := []int{0, 1, 24, 1 << 20, len(all) - 1, len(all)}
		peekMax := peeks[rng.Intn(len(peeks))]
		cands, bound, boundOK, ok := q.ApplyRound(pops, removes, pushes, peekMax)
		if !ok {
			t.Fatalf("seed %d round %d: refused", seed, round)
		}
		prefix("ApplyRound cands", cands, peekMax, all)
		if boundOK {
			for _, e := range all[len(cands):] {
				if !entryBefore(bound, e) {
					t.Fatalf("seed %d round %d: %+v not returned but orders before bound %+v", seed, round, e, bound)
				}
			}
		} else if peekMax > 0 && len(cands) != len(all) {
			t.Fatalf("seed %d round %d: no bound, but %d of %d entries returned", seed, round, len(cands), len(all))
		}
		// Rounds with nothing to apply are pure peeks; they reuse the
		// buffer cands aliases.
		cands = append([]Entry(nil), cands...)
		for _, n := range peeks {
			got, _, bounded, _ := q.ApplyRound(nil, nil, nil, n)
			prefix(fmt.Sprintf("peek %d", n), got, n, all)
			if bounded != (n > 0 && len(all) > n) {
				t.Fatalf("seed %d round %d: peek %d bounded=%v over %d entries", seed, round, n, bounded, len(all))
			}
		}
		// The next round: consume a prefix of the candidates, reschedule
		// most of it a little later, drop a few pages (one of them
		// absent), discover a few.
		now := float64(round / 10)
		pops, removes, pushes = pops[:0], removes[:0], pushes[:0]
		for _, e := range cands[:min(len(cands), rng.Intn(17))] {
			pops = append(pops, e.URL)
			if rng.Intn(8) > 0 {
				pushes = append(pushes, Entry{URL: e.URL, Due: now + float64(rng.Intn(4)), Priority: float64(rng.Intn(2))})
			}
		}
		gone := rng.Intn(nextPage)
		removes = append(removes, urlOn(gone%29, gone), "http://nowhere.example/x")
		for i := rng.Intn(4); i > 0; i-- {
			pushes = append(pushes, Entry{URL: urlOn(nextPage%29, nextPage), Due: now + float64(rng.Intn(4)), Priority: float64(rng.Intn(2))})
			nextPage++
		}
	}
	if q.Len() != len(model) {
		t.Fatalf("seed %d: Len %d, model %d", seed, q.Len(), len(model))
	}
}

// TestPeekEmptyIsUnbounded: a peek of an empty queue, or of none at
// all (a negative peekMax is clamped to zero), returns no candidates
// and no bound.
func TestPeekEmptyIsUnbounded(t *testing.T) {
	q := NewSharded(4)
	for _, n := range []int{-1, 0, 3} {
		if cands, _, bounded, ok := q.ApplyRound(nil, nil, nil, n); len(cands) != 0 || bounded || !ok {
			t.Fatalf("peek %d on an empty queue = %v, bounded=%v, ok=%v", n, cands, bounded, ok)
		}
	}
	q.Push(urlOn(1, 1), 0, 0)
	if cands, _, bounded, _ := q.ApplyRound(nil, nil, nil, -1); len(cands) != 0 || bounded {
		t.Fatalf("peek -1 on a non-empty queue = %v, bounded=%v", cands, bounded)
	}
}

// TestDiskTierResidentStaysWithinBudget is the regression test for the
// residency overshoot: the old peek promoted every shard up to its own
// n-th entry on every round and held ≈ 2.25× the budget resident over a
// crawl. The bounded peek promotes only what beats the list's cut-off
// as it stands when a shard is walked, so a shard holds at most one
// list's worth of its own head beyond its budget (dues here never tie).
func TestDiskTierResidentStaysWithinBudget(t *testing.T) {
	const (
		budget = 2000
		peek   = 24
		pages  = 10_000
	)
	q := openDiskSharded(t, 16, budget)
	rng := rand.New(rand.NewSource(11))
	seed := make([]Entry, pages)
	for i := range seed {
		seed[i] = Entry{URL: urlOn(i%270, i), Due: rng.Float64() * 10, Priority: float64(rng.Intn(3))}
	}
	cands, _, _, _ := q.ApplyRound(nil, nil, seed, peek)
	peak := q.Tier().Resident
	var pops []string
	var pushes []Entry
	for round := 0; round < 3000; round++ {
		pops, pushes = pops[:0], pushes[:0]
		for _, e := range cands[:16] {
			pops = append(pops, e.URL)
			pushes = append(pushes, Entry{URL: e.URL, Due: e.Due + 1 + rng.Float64()*10, Priority: e.Priority})
		}
		cands, _, _, _ = q.ApplyRound(pops, nil, pushes, peek)
		peak = max(peak, q.Tier().Resident)
	}
	t.Logf("resident peak %d under a %d-entry budget", peak, budget)
	if limit := budget + 16*peek; peak > limit {
		t.Fatalf("resident peak %d over a %d-entry budget (limit %d)", peak, budget, limit)
	}
}

// TestApplyRoundBesideConcurrentUse: one round driver (the protocol
// allows one, whose candidates alias the reused round buffers) shares
// the queue with goroutines pushing, removing and peeking at its head —
// the race detector's view of those buffers.
func TestApplyRoundBesideConcurrentUse(t *testing.T) {
	q := NewSharded(8)
	for i := 0; i < 500; i++ {
		q.Push(urlOn(i%17, i), float64(i%13), 0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := urlOn(100+g, i%50)
				q.Push(u, float64(i%7), 0)
				if _, ok := q.Peek(); !ok {
					t.Errorf("Peek of a non-empty queue failed")
					return
				}
				q.Remove(u)
			}
		}(g)
	}
	cands, _, _, _ := q.ApplyRound(nil, nil, nil, 24)
	var pops []string
	var pushes []Entry
	for round := 0; round < 300; round++ {
		pops, pushes = pops[:0], pushes[:0]
		for _, e := range cands[:min(len(cands), 16)] {
			pops = append(pops, e.URL)
			pushes = append(pushes, Entry{URL: e.URL, Due: e.Due + 13})
		}
		cands, _, _, _ = q.ApplyRound(pops, nil, pushes, 24)
	}
	close(stop)
	wg.Wait()
}
