package frontier

import "hash/fnv"

// ShardSet is the shard-facing frontier interface the crawl engines
// consume: a revisit queue partitioned into per-site shards with
// politeness and exclusive-claim semantics. Two implementations exist:
// the in-process *Sharded, and cluster.RemoteShards, which speaks the
// same operations to shard servers on other machines — so core.Crawler
// and cmd/webcrawl run unchanged whether their shards are local or
// distributed.
//
// core.Crawler mutates the queue only through ApplyRound; the per-entry
// pop family serves cmd/webcrawl's claim dispatcher and its politeness.
//
// Methods deliberately carry no error returns: the in-process queue
// cannot fail, and remote implementations absorb transport failures
// into a sticky error surfaced out of band (cluster.RemoteShards.Err).
type ShardSet interface {
	// NumShards returns the total shard count across the set.
	NumShards() int
	// ShardOf returns the shard index url hashes to; all URLs of one
	// host map to the same shard.
	ShardOf(url string) int
	// Push inserts or reschedules url.
	Push(url string, due, priority float64)
	// PushBatch inserts or reschedules every entry, equivalent to
	// calling Push for each; the final state is independent of entry
	// order. Remote implementations ship one round trip per server per
	// batch instead of one per URL, so batch-heavy apply paths should
	// prefer it.
	PushBatch(entries []Entry)
	// PopDue removes and returns the globally earliest entry due at or
	// before now across all politeness-ready shards.
	PopDue(now float64) (Entry, bool)
	// ClaimDue is PopDue for worker pools: it additionally claims the
	// winning shard exclusively until Release(shard, ...).
	ClaimDue(now float64) (Entry, int, bool)
	// Release returns a claimed shard and sets its politeness deadline.
	Release(shard int, nextReady float64)
	// Remove deletes url, reporting whether it was present.
	Remove(url string) bool
	// Contains reports whether url is queued.
	Contains(url string) bool
	// Len returns the total number of queued entries.
	Len() int
	// URLs returns all queued URLs in sorted order.
	URLs() []string
	// Peek returns the globally earliest entry without removing it,
	// ignoring politeness and claims.
	Peek() (Entry, bool)
	// NextEvent returns the earliest time any entry becomes poppable,
	// accounting for politeness deadlines.
	NextEvent() (float64, bool)
	// ApplyRound applies one dispatch round's pops, removes and pushes
	// and returns the next peekMax pop candidates (see
	// Sharded.ApplyRound). ok is false, with nothing applied, when a
	// politeness gap is configured.
	ApplyRound(pops, removes []string, pushes []Entry, peekMax int) (cands []Entry, bound Entry, boundOK, ok bool)
}

// EntryBefore reports whether a pops before b under the queue order:
// due ascending, then priority descending, then URL. Exported so
// cluster.RemoteShards can pick the global minimum among per-server
// head candidates with exactly the in-process comparator.
func EntryBefore(a, b Entry) bool { return entryBefore(a, b) }

// HostShard is the canonical host-to-shard hash: the shard index (in a
// set of n) that the host of url maps to. Sharded uses it in-process;
// cluster.RemoteShards uses the same function to route URLs to shard
// servers, so host affinity holds at both levels.
func HostShard(host string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(host))
	return int(h.Sum32() % uint32(n))
}
