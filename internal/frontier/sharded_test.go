package frontier

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// urlOn builds a URL on one of nHosts distinct hosts.
func urlOn(host, page int) string {
	return fmt.Sprintf("http://site%03d.com/p%05d", host, page)
}

// roundPop pops the queue's head regardless of due time the way the
// crawl engine pops: one round peeks it, the next ships it as a pop.
func roundPop(q *Sharded) (Entry, bool) {
	cands, _, _, _ := q.ApplyRound(nil, nil, nil, 1)
	if len(cands) == 0 {
		return Entry{}, false
	}
	e := cands[0]
	q.ApplyRound([]string{e.URL}, nil, nil, 0)
	return e, true
}

func TestShardedSameHostSameShard(t *testing.T) {
	q := NewSharded(16)
	for h := 0; h < 20; h++ {
		want := q.ShardOf(urlOn(h, 0))
		for p := 1; p < 10; p++ {
			if got := q.ShardOf(urlOn(h, p)); got != want {
				t.Fatalf("host %d page %d on shard %d, root on %d", h, p, got, want)
			}
		}
	}
}

// TestShardedNumShards: the shard count is the one asked for, at
// least one, and every URL maps into it.
func TestShardedNumShards(t *testing.T) {
	for _, n := range []int{0, 1, 3, 16} {
		q := NewSharded(n)
		want := max(n, 1)
		if got := q.NumShards(); got != want {
			t.Fatalf("NewSharded(%d).NumShards() = %d, want %d", n, got, want)
		}
		for h := 0; h < 50; h++ {
			if sh := q.ShardOf(urlOn(h, 0)); sh < 0 || sh >= want {
				t.Fatalf("%d shards: host %d on shard %d", want, h, sh)
			}
		}
	}
}

func TestShardedSpreadsHosts(t *testing.T) {
	q := NewSharded(8)
	for h := 0; h < 64; h++ {
		q.Push(urlOn(h, 0), 0, 0)
	}
	nonEmpty := 0
	for _, n := range q.ShardLens() {
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("64 hosts landed on only %d of 8 shards", nonEmpty)
	}
}

// refQueue is the unpartitioned revisit queue at its plainest — a map,
// popped by scanning for the (due, priority, URL) minimum — the
// reference any sharding or storage tier must pop identically to.
type refQueue map[string]Entry

func (r refQueue) Push(url string, due, priority float64) {
	r[url] = Entry{URL: url, Due: due, Priority: priority}
}

func (r refQueue) PopDue(now float64) (Entry, bool) {
	var best Entry
	found := false
	for _, e := range r {
		if !found || entryBefore(e, best) {
			best, found = e, true
		}
	}
	if !found || best.Due > now {
		return Entry{}, false
	}
	delete(r, best.URL)
	return best, true
}

// TestShardedMatchesUnpartitionedQueue drives a Sharded queue and the
// reference queue with the same random operations and demands identical
// pop sequences: sharding must not change the crawl schedule.
func TestShardedMatchesUnpartitionedQueue(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		q := NewSharded(shards)
		ref := refQueue{}
		rng := rand.New(rand.NewSource(int64(shards)))
		for i := 0; i < 500; i++ {
			u := urlOn(rng.Intn(12), rng.Intn(40))
			due := float64(rng.Intn(50))
			pri := float64(rng.Intn(3))
			q.Push(u, due, pri)
			ref.Push(u, due, pri)
		}
		for now := 0.0; now <= 50; now++ {
			for {
				want, wok := ref.PopDue(now)
				got, gok := q.PopDue(now)
				if wok != gok {
					t.Fatalf("shards=%d now=%v: ok %v vs %v", shards, now, gok, wok)
				}
				if !wok {
					break
				}
				if !got.Equal(want) {
					t.Fatalf("shards=%d now=%v: popped %+v, want %+v", shards, now, got, want)
				}
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("shards=%d: %d left vs %d", shards, q.Len(), len(ref))
		}
	}
}

func TestShardedBasicOps(t *testing.T) {
	q := NewSharded(4)
	if _, ok := roundPop(q); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	q.Push(urlOn(1, 1), 5, 0)
	q.Push(urlOn(2, 1), 3, 0)
	q.Push(urlOn(3, 1), 4, 0)
	if !q.Contains(urlOn(2, 1)) {
		t.Fatal("pushed URL not contained")
	}
	if head, ok := q.Peek(); !ok || head.URL != urlOn(2, 1) {
		t.Fatalf("peek %+v, want earliest", head)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("len %d, want 3", got)
	}
	urls := q.URLs()
	if len(urls) != 3 || !sort.StringsAreSorted(urls) {
		t.Fatalf("URLs %v not sorted snapshot", urls)
	}
	if !q.Remove(urlOn(3, 1)) || q.Remove(urlOn(3, 1)) {
		t.Fatal("remove semantics wrong")
	}
	e, ok := roundPop(q)
	if !ok || e.URL != urlOn(2, 1) {
		t.Fatalf("pop %+v, %v", e, ok)
	}
	// Reschedule moves an entry.
	q.Push(urlOn(1, 1), 1, 0)
	if e, ok := q.PopDue(2); !ok || e.Due != 1 {
		t.Fatalf("rescheduled entry not due: %+v ok=%v", e, ok)
	}
}

func TestShardedPoliteness(t *testing.T) {
	q := NewShardedPolite(4, 2.0)
	host := 7
	q.Push(urlOn(host, 1), 0, 0)
	q.Push(urlOn(host, 2), 0, 0)
	if _, ok := q.PopDue(0); !ok {
		t.Fatal("first pop refused")
	}
	if e, ok := q.PopDue(1.9); ok {
		t.Fatalf("second same-site pop allowed inside politeness gap: %+v", e)
	}
	if ev, ok := q.NextEvent(); !ok || ev != 2.0 {
		t.Fatalf("next event %v ok=%v, want politeness deadline 2", ev, ok)
	}
	if _, ok := q.PopDue(2.0); !ok {
		t.Fatal("pop refused after politeness gap elapsed")
	}
	// A different site is not throttled by host 7's gap.
	other := host + 1
	for q.ShardOf(urlOn(other, 1)) == q.ShardOf(urlOn(host, 1)) {
		other++
	}
	q.Push(urlOn(host, 3), 0, 0)
	q.Push(urlOn(other, 1), 0, 0)
	if e, ok := q.PopDue(2.5); !ok || e.URL != urlOn(other, 1) {
		t.Fatalf("cross-shard pop got %+v ok=%v", e, ok)
	}
}

func TestShardedClaimRelease(t *testing.T) {
	q := NewSharded(4)
	host := 3
	q.Push(urlOn(host, 1), 0, 0)
	q.Push(urlOn(host, 2), 1, 0)
	e, sid, ok := q.ClaimDue(5)
	if !ok || e.URL != urlOn(host, 1) {
		t.Fatalf("claim got %+v ok=%v", e, ok)
	}
	if e2, _, ok := q.ClaimDue(5); ok {
		t.Fatalf("claimed shard yielded %+v", e2)
	}
	q.Release(sid, 10)
	if _, _, ok := q.ClaimDue(9); ok {
		t.Fatal("release deadline ignored")
	}
	if e3, _, ok := q.ClaimDue(10); !ok || e3.URL != urlOn(host, 2) {
		t.Fatalf("post-release claim got %+v ok=%v", e3, ok)
	}
}

// TestShardedConcurrentStress hammers one queue from many goroutines;
// the race detector (go test -race) is the real assertion, plus a
// conservation check: every pushed URL is either popped once or still
// queued.
func TestShardedConcurrentStress(t *testing.T) {
	q := NewSharded(8)
	const (
		goroutines = 16
		perG       = 300
	)
	var popped sync.Map
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				u := fmt.Sprintf("http://site%03d.com/g%02d-i%04d", rng.Intn(40), g, i)
				q.Push(u, float64(rng.Intn(10)), 0)
				switch rng.Intn(4) {
				case 0:
					if e, ok := q.PopDue(float64(rng.Intn(12))); ok {
						if _, dup := popped.LoadOrStore(e.URL, true); dup {
							t.Errorf("URL %s popped twice", e.URL)
						}
					}
				case 1:
					if e, sid, ok := q.ClaimDue(float64(rng.Intn(12))); ok {
						if _, dup := popped.LoadOrStore(e.URL, true); dup {
							t.Errorf("URL %s popped twice", e.URL)
						}
						q.Release(sid, 0)
					}
				case 2:
					q.Contains(u)
					q.Len()
				case 3:
					q.Peek()
					q.NextEvent()
				}
			}
		}(g)
	}
	wg.Wait()
	// Conservation: pushed = popped + remaining (removals never raced
	// pops here because each URL is unique per goroutine).
	remaining := q.Len()
	poppedN := 0
	popped.Range(func(_, _ any) bool { poppedN++; return true })
	if total := goroutines * perG; poppedN+remaining != total {
		t.Fatalf("conservation broken: %d popped + %d remaining != %d pushed",
			poppedN, remaining, total)
	}
}

// TestShardedConcurrentDrain has workers drain a prefilled queue through
// ClaimDue/Release and verifies nothing is lost or duplicated.
func TestShardedConcurrentDrain(t *testing.T) {
	q := NewSharded(8)
	const n = 2000
	for i := 0; i < n; i++ {
		q.Push(urlOn(i%50, i), float64(i%7), 0)
	}
	var got sync.Map
	var count int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e, sid, ok := q.ClaimDue(100)
				if !ok {
					return
				}
				if _, dup := got.LoadOrStore(e.URL, true); dup {
					t.Errorf("URL %s drained twice", e.URL)
				}
				mu.Lock()
				count++
				mu.Unlock()
				q.Release(sid, 0)
			}
		}()
	}
	wg.Wait()
	if count != n || q.Len() != 0 {
		t.Fatalf("drained %d of %d, %d left", count, n, q.Len())
	}
}

// TestShardedPushBatch: a batch insert must be indistinguishable from
// the equivalent sequence of Pushes, including reschedules of queued
// URLs.
func TestShardedPushBatch(t *testing.T) {
	a, b := NewSharded(4), NewSharded(4)
	var batch []Entry
	for i := 0; i < 40; i++ {
		u := urlOn(i%7, i)
		due, prio := float64(i%5), float64(i%3)
		a.Push(u, due, prio)
		batch = append(batch, Entry{URL: u, Due: due, Priority: prio})
	}
	// Reschedule some of the same URLs within the batch.
	for i := 0; i < 10; i++ {
		u := urlOn(i%7, i)
		a.Push(u, 9, 1)
		batch = append(batch, Entry{URL: u, Due: 9, Priority: 1})
	}
	b.PushBatch(batch)
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", b.Len(), a.Len())
	}
	for {
		ae, aok := a.PopDue(100)
		be, bok := b.PopDue(100)
		if aok != bok {
			t.Fatalf("pop ok %v vs %v", bok, aok)
		}
		if !aok {
			return
		}
		if !ae.Equal(be) {
			t.Fatalf("pop %+v vs %+v", be, ae)
		}
	}
}

// streamRestore copies q into r the way a shard server's WAL snapshot
// does: r is reset and takes q's streamed entries, which is all a
// snapshot holds.
func streamRestore(t *testing.T, q, r *Sharded) {
	t.Helper()
	r.Reset()
	if err := q.StreamEntries(7, func(chunk []Entry) error {
		r.PushBatch(chunk)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSnapshotRestore: a streamed snapshot restored into an
// identical layout must reproduce the entries and their pop order.
func TestShardedSnapshotRestore(t *testing.T) {
	q := NewSharded(4)
	for i := 0; i < 30; i++ {
		q.Push(urlOn(i%6, i), float64(i%4), float64(i%2))
	}
	q.PopDue(2)

	r := NewSharded(4)
	streamRestore(t, q, r)

	if r.Len() != q.Len() {
		t.Fatalf("Len %v vs %v", r.Len(), q.Len())
	}
	// Pop sequences must agree from the last pop's day on.
	for now := 2.0; now < 20; now += 0.5 {
		for {
			qe, qok := q.PopDue(now)
			re, rok := r.PopDue(now)
			if qok != rok {
				t.Fatalf("day %v: ok %v vs %v", now, rok, qok)
			}
			if !qok {
				break
			}
			if qe.URL != re.URL || qe.Due != re.Due {
				t.Fatalf("day %v: %+v vs %+v", now, re, qe)
			}
		}
	}
}

// TestShardedRestoreReshard: restoring a streamed snapshot into a
// different shard count keeps every entry, re-hashed.
func TestShardedRestoreReshard(t *testing.T) {
	q := NewSharded(4)
	for i := 0; i < 20; i++ {
		q.Push(urlOn(i%5, i), float64(i), 0)
	}
	r := NewSharded(16)
	streamRestore(t, q, r)
	if r.Len() != q.Len() {
		t.Fatalf("Len %d vs %d", r.Len(), q.Len())
	}
	qu, ru := q.URLs(), r.URLs()
	for i := range qu {
		if qu[i] != ru[i] {
			t.Fatalf("URLs diverge at %d", i)
		}
	}
}

// TestShardedRoundPeek: a round with no ops returns exactly the prefix
// a sequence of unconstrained pops would produce, bounds it when it is
// not the whole queue, and leaves the queue untouched.
func TestShardedRoundPeek(t *testing.T) {
	q := NewSharded(4)
	const n = 40
	for i := 0; i < n; i++ {
		q.Push(urlOn(i%7, i), float64((i*5)%11), float64(i%3))
	}
	for _, k := range []int{1, 5, n - 1, n, n + 10} {
		cands, _, bounded, _ := q.ApplyRound(nil, nil, nil, k)
		if wantBounded := k < n; bounded != wantBounded {
			t.Fatalf("peek %d: bounded=%v, want %v", k, bounded, wantBounded)
		}
		if want := min(k, n); len(cands) != want {
			t.Fatalf("peek %d returned %d entries, want %d", k, len(cands), want)
		}
		if q.Len() != n {
			t.Fatalf("peek %d mutated the queue: Len=%d", k, q.Len())
		}
	}
	// The full peek must equal draining the queue by PopDue.
	cands, _, _, _ := q.ApplyRound(nil, nil, nil, n)
	cands = append([]Entry(nil), cands...) // the pops' rounds reuse the buffer
	for i := 0; i < n; i++ {
		e, ok := q.PopDue(math.Inf(1))
		if !ok {
			t.Fatalf("pop %d: queue drained", i)
		}
		if !e.Equal(cands[i]) {
			t.Fatalf("peek[%d] = %+v, PopDue yielded %+v", i, cands[i], e)
		}
	}
}

// TestShardedApplyRound: pops and drops leave, pushes land, candidates
// come back in order with a correct bound.
func TestShardedApplyRound(t *testing.T) {
	q := NewSharded(4)
	for i := 0; i < 10; i++ {
		q.Push(urlOn(i, i), float64(i), 0)
	}
	cands, _, _, ok := q.ApplyRound(nil, nil, nil, 4)
	if !ok || len(cands) != 4 {
		t.Fatalf("peek round: ok=%v cands=%v", ok, cands)
	}
	cands = append([]Entry(nil), cands...) // the next round reuses the buffer
	pops := []string{cands[0].URL, cands[1].URL}
	pushes := []Entry{{URL: cands[0].URL, Due: 100}}
	removes := []string{cands[2].URL, "http://nowhere.example/x"}
	next, bound, bounded, ok := q.ApplyRound(pops, removes, pushes, 3)
	if !ok {
		t.Fatal("round refused")
	}
	if q.Len() != 8 { // 10 - 2 pops - 1 real remove + 1 push
		t.Fatalf("Len = %d after round, want 8", q.Len())
	}
	if len(next) != 3 || next[0].URL != cands[3].URL {
		t.Fatalf("candidates after round: %+v (had %+v)", next, cands)
	}
	if !bounded || bound != next[len(next)-1] {
		t.Fatalf("bound = %+v (%v), want last candidate %+v", bound, bounded, next[len(next)-1])
	}
	if q.Contains(cands[2].URL) {
		t.Fatal("removed URL still present")
	}
	if !q.Contains(cands[0].URL) {
		t.Fatal("re-pushed URL missing")
	}
}
