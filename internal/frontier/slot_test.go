package frontier

import (
	"math/rand"
	"testing"
)

// TestSlotEchoMatchesModel: a push may name any slot — the one its URL's
// latest copy names, one gone stale since (the URL dropped, its slot
// freed and reused by another), one read off another queue, or zero, as
// a wire-decoded entry does — and the queue must end up where the model
// does whichever it names. Pops arrive out of head order, and as plain
// removes too, so the parked slots of popped URLs meet reschedules,
// drops and rediscoveries. Every candidate list, Contains answer and
// the final queue are held to the sort-everything model, over both
// tiers.
func TestSlotEchoMatchesModel(t *testing.T) {
	tiers := []struct {
		name string
		open func() *Sharded
	}{
		{"mem", func() *Sharded { return NewSharded(4) }},
		{"disk", func() *Sharded { return openDiskSharded(t, 4, 32) }},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			var st echoStats
			for seed := int64(1); seed <= 4; seed++ {
				slotEchoAgainstModel(t, tier.open(), tier.open(), seed, &st)
			}
			if tier.name != "mem" {
				return // the disk tier finds slots by its own index
			}
			t.Logf("echoed slots naming their URL: %d, naming another or none: %d", st.hit, st.miss)
			if st.hit == 0 || st.miss == 0 {
				t.Fatalf("%d echoes named their URL's slot and %d did not: the history misses a path", st.hit, st.miss)
			}
		})
	}
}

// echoStats counts, on the in-memory tier, the pushes whose slot named
// their URL's slot when pushed and those whose slot did not.
type echoStats struct{ hit, miss int }

func slotEchoAgainstModel(t *testing.T, q, foreign *Sharded, seed int64, st *echoStats) {
	rng := rand.New(rand.NewSource(seed))
	model := queueModel{}
	const pages = 150
	url := func(i int) string { return urlOn(i%7, i) }
	// copies[u] is every copy of u the queue has handed out, oldest
	// first: the latest names u's slot unless u was dropped since.
	copies := map[string][]Entry{}
	// The foreign queue holds other URLs, so its slots name other URLs
	// (or nothing) here.
	var fpush []Entry
	for i := 0; i < 400; i++ {
		fpush = append(fpush, Entry{URL: urlOn(100+i%5, i), Due: float64(rng.Intn(50))})
	}
	fcands, _, _, _ := foreign.ApplyRound(nil, nil, fpush, len(fpush))
	var fslots []int32
	for _, e := range fcands {
		fslots = append(fslots, e.slot)
	}
	round := 0
	echo := func(u string) Entry {
		e := Entry{URL: u, Due: float64(round/4 + rng.Intn(6)), Priority: float64(rng.Intn(2))}
		switch cs := copies[u]; rng.Intn(4) {
		case 0: // the latest copy's
			if len(cs) > 0 {
				e.slot = cs[len(cs)-1].slot
			}
		case 1: // any copy's, maybe stale
			if len(cs) > 0 {
				e.slot = cs[rng.Intn(len(cs))].slot
			}
		case 2: // another queue's
			e.slot = fslots[rng.Intn(len(fslots))]
		} // case 3: zero, as off the wire
		return e
	}

	var pops, removes []string
	var pushes []Entry
	for ; round < 200; round++ {
		for _, e := range pushes {
			if ms, ok := q.shardFor(e.URL).st.(*memStore); ok {
				if s := e.slot; uint32(s) < uint32(len(ms.slots)) && ms.slots[s].pos != slotFree && ms.slots[s].e.URL == e.URL {
					st.hit++
				} else {
					st.miss++
				}
			}
		}
		model.apply(pops, removes, pushes)
		want := model.sorted()
		peek := 1 + rng.Intn(30)
		cands, bound, bounded, ok := q.ApplyRound(pops, removes, pushes, peek)
		if !ok {
			t.Fatalf("seed %d round %d: refused", seed, round)
		}
		if n := min(peek, len(want)); len(cands) != n {
			t.Fatalf("seed %d round %d: %d candidates, model %d", seed, round, len(cands), n)
		}
		for i := range cands {
			if !cands[i].Equal(want[i]) {
				t.Fatalf("seed %d round %d: cands[%d] = %+v, model %+v", seed, round, i, cands[i], want[i])
			}
		}
		if bounded != (len(want) > peek) || bounded && !bound.Equal(cands[len(cands)-1]) {
			t.Fatalf("seed %d round %d: bound %+v (%v) over %d entries, peek %d", seed, round, bound, bounded, len(want), peek)
		}
		cands = append([]Entry(nil), cands...) // the next round reuses the buffer
		for _, e := range cands {
			copies[e.URL] = append(copies[e.URL], e)
		}
		for k := 0; k < 8; k++ {
			u := url(rng.Intn(pages))
			if _, in := model[u]; q.Contains(u) != in {
				t.Fatalf("seed %d round %d: Contains(%s) = %v, model %v", seed, round, u, !in, in)
			}
		}

		// The next round: take some candidates in random order, each as
		// a pop or a remove, and reschedule most of them; drop a few
		// other URLs (queued, parked or absent) and push a few more
		// (new, queued, parked or dropped ones).
		pops, removes, pushes = pops[:0], removes[:0], pushes[:0]
		perm := rng.Perm(len(cands))
		for _, i := range perm[:rng.Intn(len(perm)+1)] {
			u := cands[i].URL
			if rng.Intn(4) == 0 {
				removes = append(removes, u)
			} else {
				pops = append(pops, u)
			}
			if rng.Intn(6) > 0 {
				pushes = append(pushes, echo(u))
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			removes = append(removes, url(rng.Intn(pages)))
		}
		for i := rng.Intn(8); i > 0; i-- {
			pushes = append(pushes, echo(url(rng.Intn(pages))))
		}
	}
	model.apply(pops, removes, pushes)
	q.ApplyRound(pops, removes, pushes, 0)
	got, _, _, _ := q.ApplyRound(nil, nil, nil, pages+1)
	want := model.sorted()
	if len(got) != len(want) || q.Len() != len(want) {
		t.Fatalf("seed %d: final queue %d entries (Len %d), model %d", seed, len(got), q.Len(), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("seed %d: final queue[%d] = %+v, model %+v", seed, i, got[i], want[i])
		}
	}
}
