package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"webevolve/internal/cluster"
	"webevolve/internal/frontier"
)

// countingRounds counts the round exchanges a remote frontier serves,
// and the per-entry calls made beside them, which it answers with
// nothing: the engine must not make any.
type countingRounds struct {
	*cluster.RemoteShards
	calls, perEntry int
}

func (c *countingRounds) ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) ([]frontier.Entry, frontier.Entry, bool, bool) {
	c.calls++
	return c.RemoteShards.ApplyRound(pops, removes, pushes, peekMax)
}

func (c *countingRounds) Push(string, float64, float64) { c.perEntry++ }

func (c *countingRounds) PushBatch([]frontier.Entry) { c.perEntry++ }

func (c *countingRounds) Remove(string) bool { c.perEntry++; return false }

func (c *countingRounds) Contains(string) bool { c.perEntry++; return false }

func (c *countingRounds) PopDue(float64) (frontier.Entry, bool) {
	c.perEntry++
	return frontier.Entry{}, false
}

func (c *countingRounds) ClaimDue(float64) (frontier.Entry, int, bool) {
	c.perEntry++
	return frontier.Entry{}, 0, false
}

func (c *countingRounds) Release(int, float64) { c.perEntry++ }

func (c *countingRounds) Peek() (frontier.Entry, bool) {
	c.perEntry++
	return frontier.Entry{}, false
}

func (c *countingRounds) NextEvent() (float64, bool) { c.perEntry++; return 0, false }

// TestOneRoundOfCandidatesCoversARound: the crawler asks each server for
// DispatchBatch candidates, and that is always enough — the server
// whose last candidate sets the merge bound contributes all of its
// entries, so the exact merged prefix holds a whole dispatch round.
// Each round below is one commit and DispatchBatch pops, and must cost
// exactly one exchange (the commit's), whatever the number of servers
// and however skewed the queue is across them.
func TestOneRoundOfCandidatesCoversARound(t *testing.T) {
	w, f := testWeb(t, 1)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		servers := make([]*cluster.ShardServer, 1+rng.Intn(4))
		for i := range servers {
			servers[i] = cluster.NewShardServer(frontier.NewSharded(4))
		}
		rs, err := cluster.Loopback(servers, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cr := &countingRounds{RemoteShards: rs}
		cfg := baseConfig(w)
		cfg.Frontier = cr
		cfg.DispatchBatch = 16
		c, err := New(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		// Few hosts pile the queue onto one or two servers; many spread it.
		hosts := 1 + rng.Intn(40)
		ents := make([]frontier.Entry, 400)
		for i := range ents {
			ents[i] = frontier.Entry{URL: fmt.Sprintf("http://site%03d.com/p%04d", rng.Intn(hosts), i),
				Due: float64(rng.Intn(30)), Priority: float64(rng.Intn(3))}
		}
		rs.ApplyRound(nil, nil, ents, 0)

		var resched []frontier.Entry
		for round := 0; round < 40; round++ {
			before := cr.calls
			c.rounds.Commit(nil, resched, true)
			resched = resched[:0]
			for len(resched) < cfg.DispatchBatch {
				e, ok := c.rounds.PopDue(math.Inf(1))
				if !ok {
					t.Fatalf("seed %d round %d: queue drained", seed, round)
				}
				e.Due += float64(1 + rng.Intn(30))
				resched = append(resched, e)
			}
			if n := cr.calls - before; n != 1 {
				t.Fatalf("seed %d, %d servers, round %d: %d exchanges, want 1", seed, len(servers), round, n)
			}
		}
		c.Close()
		rs.Close()
		for _, s := range servers {
			s.Close()
		}
	}
}

// TestRefusedRoundEndsTheRun: a frontier with a politeness gap refuses
// the round protocol, the engine's only way to its frontier. The
// refusal must end the crawl with an error naming the gap (from New,
// whose seed admission is the first round, or at the latest from
// RunUntil), and no page may be fetched: the engine never falls back to
// per-entry frontier calls.
func TestRefusedRoundEndsTheRun(t *testing.T) {
	w, f := testWeb(t, 24)
	cfg := baseConfig(w)
	cfg.Frontier = frontier.NewShardedPolite(4, 0.5)
	counted := &failingFetcher{inner: f, at: math.MaxInt64}
	c, err := New(cfg, counted)
	if err == nil {
		err = c.RunUntil(8)
	}
	if !errors.Is(err, frontier.ErrRoundRefused) {
		t.Fatalf("crawl over a polite frontier returned %v, want the round refusal", err)
	}
	if n := counted.n.Load(); n != 0 {
		t.Fatalf("%d fetches over a refused frontier, want 0", n)
	}
}

// overrunningFrontier breaks the round contract: every candidate list
// it returns comes with a bound that orders before the list's head.
type overrunningFrontier struct {
	*frontier.Sharded
}

func (o overrunningFrontier) ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) ([]frontier.Entry, frontier.Entry, bool, bool) {
	cands, bound, bounded, ok := o.Sharded.ApplyRound(pops, removes, pushes, peekMax)
	if len(cands) > 0 {
		bound, bounded = frontier.Entry{Due: cands[0].Due - 1}, true
	}
	return cands, bound, bounded, ok
}

// TestOverrunRoundEndsTheRun: a frontier whose fresh candidate prefix
// has a head past its own bound cannot be popped in order. The engine
// must end the crawl with frontier.ErrRoundOverrun before any fetch
// instead of refreshing forever or popping out of order.
func TestOverrunRoundEndsTheRun(t *testing.T) {
	w, f := testWeb(t, 24)
	cfg := baseConfig(w)
	cfg.Frontier = overrunningFrontier{frontier.NewSharded(4)}
	counted := &failingFetcher{inner: f, at: math.MaxInt64}
	c, err := New(cfg, counted)
	if err == nil {
		err = c.RunUntil(8)
	}
	if !errors.Is(err, frontier.ErrRoundOverrun) {
		t.Fatalf("crawl over an overrunning frontier returned %v, want the overrun error", err)
	}
	if n := counted.n.Load(); n != 0 {
		t.Fatalf("%d fetches over an overrunning frontier, want 0", n)
	}
}
