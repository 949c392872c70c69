package frontier

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"webevolve/internal/webgraph"
)

// partedFrontier answers ApplyRound the way a shard-server cluster
// does: the queue is split over parts by host, each part returns window
// rounds of candidates, and the lists merge under the earliest last
// entry among the parts that truncated theirs. Only ApplyRound is
// implemented.
type partedFrontier struct {
	ShardSet
	parts  []*Sharded
	window int
	calls  int
}

func (f *partedFrontier) ApplyRound(pops, removes []string, pushes []Entry, peekMax int) ([]Entry, Entry, bool, bool) {
	f.calls++
	n := len(f.parts)
	part := func(u string) int { return HostShard(webgraph.SiteOf(u), n) }
	ps, rs, us := make([][]string, n), make([][]string, n), make([][]Entry, n)
	for _, u := range pops {
		ps[part(u)] = append(ps[part(u)], u)
	}
	for _, u := range removes {
		rs[part(u)] = append(rs[part(u)], u)
	}
	for _, e := range pushes {
		us[part(e.URL)] = append(us[part(e.URL)], e)
	}
	var merged []Entry
	var bound Entry
	bounded := false
	for i, p := range f.parts {
		cands, b, bok, _ := p.ApplyRound(ps[i], rs[i], us[i], f.window*peekMax)
		merged = append(merged, cands...)
		if bok && (!bounded || EntryBefore(b, bound)) {
			bound, bounded = b, true
		}
	}
	sort.Slice(merged, func(i, j int) bool { return EntryBefore(merged[i], merged[j]) })
	return merged, bound, bounded, true
}

// eagerQueue is the reference: one queue that every pop and commit
// reaches at once.
type eagerQueue struct{ q *Sharded }

func (e eagerQueue) head() (Entry, bool) {
	c, _, _, _ := e.q.ApplyRound(nil, nil, nil, 1)
	if len(c) == 0 {
		return Entry{}, false
	}
	return c[0], true
}

func (e eagerQueue) popDue(now float64) (Entry, bool) {
	h, ok := e.head()
	if !ok || h.Due > now {
		return Entry{}, false
	}
	e.q.ApplyRound([]string{h.URL}, nil, nil, 0)
	return h, true
}

// all lists every queued entry in pop order.
func all(coll ShardSet) []Entry {
	c, _, _, _ := coll.ApplyRound(nil, nil, nil, 1<<20)
	return append([]Entry{}, c...)
}

// deferralStats counts what a run of runDeferral exercised.
type deferralStats struct {
	waited, shipped int // Commit(…, true) calls that did and did not wait
}

// runDeferral drives Rounds over a partedFrontier and an eagerQueue
// with the operations prog spells, byte by byte, and fails t at the
// first pop, NextEvent answer or final queue on which they differ.
// Pushes come from popped entries (far ahead, as a crawl reschedules),
// from URLs near the queue head (cached ones) and from anywhere, at
// dues that may land inside the cache's bound; removes name pushed
// URLs (possibly still waiting), URLs near the head, or anything.
func runDeferral(t *testing.T, prog []byte) (st deferralStats) {
	t.Helper()
	next := func(n int) int {
		if len(prog) == 0 {
			return 0
		}
		v := int(prog[0]) % n
		prog = prog[1:]
		return v
	}
	f := &partedFrontier{window: 1 + next(4)}
	for i := 1 + next(3); i > 0; i-- {
		f.parts = append(f.parts, NewSharded(1+next(4)))
	}
	peekMax := 1 + next(6)
	sites := 1 + next(8)
	r := NewRounds(f, peekMax)
	ref := eagerQueue{NewSharded(4)}
	url := func() string { return urlOn(next(sites), next(40)) }

	var seed []Entry
	for i := next(64); i > 0; i-- {
		seed = append(seed, Entry{URL: url(), Due: float64(next(20)), Priority: float64(next(3))})
	}
	if err := r.Commit(nil, seed, next(2) == 0); err != nil {
		t.Fatal(err)
	}
	ref.q.ApplyRound(nil, nil, seed, 0)

	now := 0.0
	var popped []Entry
	var pushed []string
	nearHead := func() string {
		c, _, _, _ := ref.q.ApplyRound(nil, nil, nil, 8)
		if len(c) == 0 {
			return url()
		}
		return c[next(len(c))].URL
	}
	for step := 0; len(prog) > 0; step++ {
		switch next(8) {
		case 0, 1:
			for k := next(2*peekMax + 1); k > 0; k-- {
				got, gok := r.PopDue(now)
				want, wok := ref.popDue(now)
				if gok != wok || !got.Equal(want) {
					t.Fatalf("step %d: PopDue(%v) = %+v %v, want %+v %v", step, now, got, gok, want, wok)
				}
				if !gok {
					break
				}
				popped = append(popped, got)
			}
		case 2:
			got, gok := r.NextEvent()
			want, wok := ref.head()
			if gok != wok || (gok && got != want.Due) {
				t.Fatalf("step %d: NextEvent = %v %v, want %v %v", step, got, gok, want.Due, wok)
			}
		case 3, 4, 5:
			var pushes []Entry
			for k := next(5); k > 0; k-- {
				e := Entry{Due: now + float64(next(30)), Priority: float64(next(3))}
				switch next(4) {
				case 0, 1:
					if len(popped) == 0 {
						continue
					}
					i := next(len(popped))
					e.URL, e.Due = popped[i].URL, now+1+float64(next(30))
					popped = append(popped[:i], popped[i+1:]...)
				case 2:
					e.URL = nearHead()
				default:
					e.URL = url()
				}
				pushes = append(pushes, e)
			}
			var removes []string
			for k := next(3); k > 0; k-- {
				switch next(3) {
				case 0:
					if len(pushed) > 0 {
						removes = append(removes, pushed[next(len(pushed))])
					}
				case 1:
					removes = append(removes, nearHead())
				default:
					removes = append(removes, url())
				}
			}
			want := next(4) != 0
			before := f.calls
			if err := r.Commit(removes, pushes, want); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			ref.q.ApplyRound(nil, removes, pushes, 0)
			if want && f.calls == before {
				st.waited++
			} else if want {
				st.shipped++
			}
			for _, e := range pushes {
				pushed = append(pushed, e.URL)
			}
			if len(pushed) > 16 {
				pushed = pushed[len(pushed)-16:]
			}
		case 6:
			if err := r.Flush(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			now += float64(next(5))
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := all(f), all(ref.q); !slices.EqualFunc(got, want, Entry.Equal) {
		t.Fatalf("final queue\n got %+v\nwant %+v", got, want)
	}
	return st
}

// TestRoundsDeferralMatchesEagerCommits: Rounds over a frontier that
// returns several rounds of candidates lets commits wait while its
// cache stays exact. Whatever it defers, its pops, its NextEvent
// answers and the final queue must be those of a queue every commit
// reaches at once — over one to three parts, windows of one to four
// rounds, bounded and whole-queue caches, with Flush and
// Commit(…, false) arriving while ops wait.
func TestRoundsDeferralMatchesEagerCommits(t *testing.T) {
	var total deferralStats
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 200+rng.Intn(600))
		rng.Read(prog)
		st := runDeferral(t, prog)
		total.waited += st.waited
		total.shipped += st.shipped
	}
	t.Logf("commits wanting candidates: %d waited, %d shipped", total.waited, total.shipped)
	if total.waited == 0 || total.shipped == 0 {
		t.Fatalf("%d commits waited and %d shipped: the programs miss a path", total.waited, total.shipped)
	}
}

// FuzzRoundsDeferral is TestRoundsDeferralMatchesEagerCommits over
// arbitrary programs.
func FuzzRoundsDeferral(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 300)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runDeferral(t, prog)
	})
}

// applyCounter counts the rounds that reach its queue.
type applyCounter struct {
	*Sharded
	rounds int
}

func (c *applyCounter) ApplyRound(pops, removes []string, pushes []Entry, peekMax int) ([]Entry, Entry, bool, bool) {
	c.rounds++
	return c.Sharded.ApplyRound(pops, removes, pushes, peekMax)
}

// TestRoundsRefusalIsSticky: a frontier with a politeness gap refuses
// the round; the refusal becomes the adapter's sticky error, the queue
// reads as drained, and nothing more ships to the frontier.
func TestRoundsRefusalIsSticky(t *testing.T) {
	q := NewShardedPolite(4, 1)
	q.Push(urlOn(0, 0), 0, 0)
	c := &applyCounter{Sharded: q}
	r := NewRounds(c, 4)
	if err := r.Err(); err != nil {
		t.Fatalf("fresh adapter: %v", err)
	}
	if _, ok := r.PopDue(10); ok {
		t.Fatal("a refused round popped")
	}
	if err := r.Err(); err != ErrRoundRefused {
		t.Fatalf("Err = %v, want ErrRoundRefused", err)
	}
	refused := c.rounds
	if _, ok := r.NextEvent(); ok {
		t.Fatal("a failed adapter reports a next event")
	}
	if err := r.Commit(nil, []Entry{{URL: urlOn(1, 0), Due: 1}}, false); err != ErrRoundRefused {
		t.Fatalf("Commit = %v, want the sticky error", err)
	}
	if err := r.Flush(); err != ErrRoundRefused {
		t.Fatalf("Flush = %v, want the sticky error", err)
	}
	if c.rounds != refused {
		t.Fatalf("%d rounds reached the frontier after the refusal", c.rounds-refused)
	}
	if got := q.URLs(); len(got) != 1 || got[0] != urlOn(0, 0) {
		t.Fatalf("queue after the refusal: %v", got)
	}
}
