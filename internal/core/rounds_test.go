package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"webevolve/internal/cluster"
	"webevolve/internal/frontier"
)

// countingRounds counts the round exchanges a remote frontier serves,
// and the per-URL Push and Remove calls made beside them.
type countingRounds struct {
	*cluster.RemoteShards
	calls, perURL int
}

func (c *countingRounds) ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) ([]frontier.Entry, frontier.Entry, bool, bool) {
	c.calls++
	return c.RemoteShards.ApplyRound(pops, removes, pushes, peekMax)
}

func (c *countingRounds) Push(url string, due, priority float64) {
	c.perURL++
	c.RemoteShards.Push(url, due, priority)
}

func (c *countingRounds) Remove(url string) bool {
	c.perURL++
	return c.RemoteShards.Remove(url)
}

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
		rs.PushBatch(ents)

		var resched []frontier.Entry
		for round := 0; round < 40; round++ {
			before := cr.calls
			c.rounds.commitRound(nil, resched, true)
			resched = resched[:0]
			for len(resched) < cfg.DispatchBatch {
				e, ok := c.rounds.popDue(math.Inf(1))
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
