package frontier

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// The candidate peek as it was before the bounded merge — every shard's
// own top n, concatenated and sorted — kept verbatim as the oracle the
// merge must match entry for entry.

func oldPeekN(q *Sharded, n int) ([]Entry, bool) {
	total := 0
	var out []Entry
	for _, s := range q.shards {
		s.mu.Lock()
		total += s.st.size()
		out = append(out, oldTopN(s.st, n)...)
		s.mu.Unlock()
	}
	// Per-shard top-n suffices: the global first n entries draw at most
	// n from any one shard.
	sort.Slice(out, func(i, j int) bool { return entryBefore(out[i], out[j]) })
	complete := total <= n
	if n < 0 {
		n = 0
	}
	if len(out) > n {
		out = out[:n]
	}
	return out, complete
}

func oldApplyRound(q *Sharded, pops, removes []string, pushes []Entry, peekMax int) (cands []Entry, bound Entry, boundOK, ok bool) {
	if q.Politeness() > 0 {
		return nil, Entry{}, false, false
	}
	for _, u := range pops {
		q.Remove(u)
	}
	for _, u := range removes {
		q.Remove(u)
	}
	q.PushBatch(pushes)
	if peekMax <= 0 {
		return nil, Entry{}, false, true
	}
	cands, complete := oldPeekN(q, peekMax)
	if !complete && len(cands) > 0 {
		bound, boundOK = cands[len(cands)-1], true
	}
	return cands, bound, boundOK, true
}

func oldTopN(st shardStore, n int) []Entry {
	switch st := st.(type) {
	case *memStore:
		return oldMemTopN(&st.memQueue, n)
	case *diskStore:
		return oldDiskTopN(st, n)
	}
	panic("unknown shard store")
}

func oldMemTopN(m *memQueue, n int) []Entry {
	if n <= 0 || len(m.h) == 0 {
		return nil
	}
	if n > len(m.h) {
		n = len(m.h)
	}
	// idxs is a min-heap of positions into m.h, ordered by the entry
	// comparator; the heap-array children of a popped position are the
	// only new candidates for the next-smallest entry.
	idxs := make([]int, 1, 2*n+1)
	idxs[0] = 0
	less := func(a, b int) bool { return m.h.Less(idxs[a], idxs[b]) }
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			sm := i
			if l < len(idxs) && less(l, sm) {
				sm = l
			}
			if r < len(idxs) && less(r, sm) {
				sm = r
			}
			if sm == i {
				return
			}
			idxs[i], idxs[sm] = idxs[sm], idxs[i]
			i = sm
		}
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(i, p) {
				return
			}
			idxs[i], idxs[p] = idxs[p], idxs[i]
			i = p
		}
	}
	out := make([]Entry, 0, n)
	for len(out) < n && len(idxs) > 0 {
		head := idxs[0]
		ent := *m.h[head]
		ent.index = 0 // the heap position is meaningless in a copy
		out = append(out, ent)
		last := len(idxs) - 1
		idxs[0] = idxs[last]
		idxs = idxs[:last]
		down(0)
		if l := 2*head + 1; l < len(m.h) {
			idxs = append(idxs, l)
			up(len(idxs) - 1)
		}
		if r := 2*head + 2; r < len(m.h) {
			idxs = append(idxs, r)
			up(len(idxs) - 1)
		}
	}
	return out
}

func oldDiskTopN(d *diskStore, n int) []Entry {
	if n <= 0 || len(d.index) == 0 {
		return nil
	}
	// Make the resident set contain the true first n: fill to n off the
	// spill minimum, then pull everything that could order at or before
	// the resident n-th entry. Promotions only lower that boundary, so
	// one pass against the initial boundary is conservative-correct.
	for d.resident.size() < n {
		if _, ok := d.spillMin(); !ok {
			break
		}
		d.promoteMin()
	}
	if top := oldMemTopN(d.resident, n); len(top) > 0 {
		bound := top[len(top)-1]
		for {
			it, ok := d.spillMin()
			if !ok || (d.resident.size() >= n && spillAfter(it, bound)) {
				break
			}
			d.promoteMin()
		}
	}
	return oldMemTopN(d.resident, n)
}

// TestPeekMatchesOldPeek drives two queues of the same tier through one
// randomized crawl-shaped history — rounds of pops from the candidate
// prefix, drops, reschedules and new pages, with (due, priority) drawn
// from a handful of values so URL tie-breaks and the disk tier's
// tie-group promotion decide most positions — peeking one through the
// bounded merge and the other through the old per-shard top-n. The
// disk-tier twins diverge in what they hold resident (the old peek
// promotes far more), which is exactly what must not show in the result.
func TestPeekMatchesOldPeek(t *testing.T) {
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
				peekEquivalence(t, tier.open(), tier.open(), seed)
			}
		})
	}
}

func peekEquivalence(t *testing.T, q, ref *Sharded, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	same := func(what string, a, b []Entry) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("seed %d: %s: %d entries, old peek %d", seed, what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: %s[%d] = %+v, old peek %+v", seed, what, i, a[i], b[i])
			}
		}
	}
	var pushes []Entry
	for i := 0; i < 600; i++ {
		pushes = append(pushes, Entry{URL: urlOn(i%29, i), Due: float64(rng.Intn(4)), Priority: float64(rng.Intn(2))})
	}
	nextPage := len(pushes)
	var pops, removes []string
	peeks := []int{0, 1, 24, 1 << 20}
	for round := 0; round < 100; round++ {
		peekMax := peeks[rng.Intn(len(peeks))]
		cands, bound, boundOK, ok := q.ApplyRound(pops, removes, pushes, peekMax)
		wc, wbound, wboundOK, wok := oldApplyRound(ref, pops, removes, pushes, peekMax)
		if !ok || !wok {
			t.Fatalf("seed %d round %d: refused", seed, round)
		}
		same("ApplyRound cands", cands, wc)
		if boundOK != wboundOK || bound != wbound {
			t.Fatalf("seed %d round %d: bound %+v (%v), old peek %+v (%v)", seed, round, bound, boundOK, wbound, wboundOK)
		}
		for _, n := range peeks {
			got, complete := q.PeekN(n)
			want, wcomplete := oldPeekN(ref, n)
			same("PeekN", got, want)
			if complete != wcomplete {
				t.Fatalf("seed %d round %d: PeekN(%d) complete=%v, old peek %v", seed, round, n, complete, wcomplete)
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
	if q.Len() != ref.Len() {
		t.Fatalf("seed %d: Len %d, reference %d", seed, q.Len(), ref.Len())
	}
}

// TestPeekNEmptyIsComplete: a negative n is clamped before completeness
// is judged, so peeking an empty queue reports the (empty) whole.
func TestPeekNEmptyIsComplete(t *testing.T) {
	q := NewSharded(4)
	for _, n := range []int{-1, 0, 3} {
		if cands, complete := q.PeekN(n); len(cands) != 0 || !complete {
			t.Fatalf("PeekN(%d) on an empty queue = %v, complete=%v", n, cands, complete)
		}
	}
	q.Push(urlOn(1, 1), 0, 0)
	if cands, complete := q.PeekN(-1); len(cands) != 0 || complete {
		t.Fatalf("PeekN(-1) on a non-empty queue = %v, complete=%v", cands, complete)
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
// allows one) shares the queue with goroutines pushing, removing and
// peeking — the race detector's view of the reused round buffers.
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
				if cands, _ := q.PeekN(8); !sort.SliceIsSorted(cands, func(a, b int) bool { return entryBefore(cands[a], cands[b]) }) {
					t.Errorf("PeekN out of order: %+v", cands)
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
