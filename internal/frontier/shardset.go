package frontier

import "hash/fnv"

// ShardSet is the shard-facing frontier interface the crawls consume: a
// revisit queue partitioned into per-site shards. Two implementations
// exist: the in-process *Sharded, and cluster.RemoteShards, which
// speaks the same operations to shard servers on other machines — so
// core.Crawler and cmd/webcrawl run unchanged whether their shards are
// local or distributed.
//
// Both crawls mutate the queue only through ApplyRound, by way of
// Rounds; besides it the engine reads Len and URLs. The per-entry
// family — Push, PushBatch, PopDue, ClaimDue, Release, Remove,
// Contains, Peek, NextEvent — and the politeness gap and claims behind
// it have no production caller. On cluster.RemoteShards the family is
// retired: the wire carries only the round, and each method records a
// sticky error naming itself (Err) and returns zero values. A shard
// server keeps no session state either: its clients' hello carries no
// gap and clears no claims, and neither its WAL nor its snapshot
// records them. The methods stay on the interface, and work on an
// in-process Sharded (whose gap NewShardedPolite fixes), while the
// benchmark's decorators forward them and its claim probe calls them
// (bench/).
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
	// order. The crawls' apply paths use ApplyRound instead, through
	// Rounds, where one exchange per server can carry several dispatch
	// rounds' commits.
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
	// ApplyRound applies pops, then removes, then pushes — one or more
	// dispatch rounds' worth, as Rounds ships them — and returns pop
	// candidates: an exact prefix of the queue holding the next peekMax
	// entries or more (see Sharded.ApplyRound; RemoteShards asks each
	// server for several rounds' worth). A queue built with a
	// politeness gap (NewShardedPolite) refuses the round with nothing
	// applied: Sharded returns ok false, and RemoteShards records a
	// server's refusal as its sticky error.
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
