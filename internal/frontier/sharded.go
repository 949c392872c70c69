package frontier

import (
	"container/heap"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"webevolve/internal/webgraph"
)

// Sharded is the revisit priority queue of the paper's Figure 12
// (CollUrls), partitioned into per-site shards: every URL is assigned to
// a shard by a hash of its host, so all pages of one site live in one
// shard, and a shard server owns whole sites. Pop order stays globally
// deterministic: ApplyRound's candidates are the prefix of the (due,
// priority, URL) order across all shards, so the pop sequence is that
// of one unpartitioned queue regardless of the shard count, which keeps
// crawls reproducible.
//
// The per-entry family (PopDue, ClaimDue, Release, ...) also keeps a
// per-shard politeness gap and exclusive claims. No crawl uses them
// (crawls space requests to one host in their fetcher; see ShardSet):
// they serve the benchmark, and a gap makes ApplyRound refuse.
//
// Each shard's entries live behind a shardStore: fully in RAM by
// default (NewSharded), or spilled to an append-only record log with
// only the due-soon head resident (OpenSharded with a SpillDir) — the
// pop order is bit-identical either way.
//
// All methods are safe for concurrent use.
type Sharded struct {
	shards []*shard
	// minGap is the per-shard politeness gap between consecutive pops,
	// in the caller's time unit (virtual or wall-clock days). Stored as
	// float64 bits so a shard server can apply a client-requested gap
	// while pops are in flight.
	minGap atomic.Uint64
	// roundMu serializes ApplyRound and guards its reused buffers.
	roundMu sync.Mutex
	round   roundOps
}

type shard struct {
	mu sync.Mutex
	st shardStore
	// nextReady is the earliest time another entry may be popped from
	// this shard (politeness).
	nextReady float64
	// claimed marks the shard as exclusively held by a worker; claimed
	// shards are skipped by ClaimDue until released.
	claimed bool
}

// NewSharded returns a sharded queue with n shards (n < 1 is treated as
// 1) and no politeness gap.
func NewSharded(n int) *Sharded {
	return NewShardedPolite(n, 0)
}

// NewShardedPolite returns a sharded queue whose shards refuse to yield
// two entries less than minGap time units apart.
func NewShardedPolite(n int, minGap float64) *Sharded {
	q, err := OpenSharded(StoreConfig{Shards: n})
	if err != nil {
		// The in-memory tier cannot fail to open.
		panic(err)
	}
	q.SetPoliteness(minGap)
	return q
}

// OpenSharded returns a sharded queue with the storage tier the config
// selects: in-memory when SpillDir is empty, disk-backed otherwise. Its
// politeness gap is zero until SetPoliteness (a shard server's clients
// set it in their hello). A disk-backed queue reopening an existing
// spill directory recovers the entries its logs hold (politeness
// deadlines, claims and the gap are not in the logs — the shardd WAL is
// the full-state durability plane); it should be Closed when done.
func OpenSharded(cfg StoreConfig) (*Sharded, error) {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	q := &Sharded{shards: make([]*shard, n)}
	if cfg.SpillDir == "" {
		for i := range q.shards {
			q.shards[i] = &shard{st: newMemStore()}
		}
		return q, nil
	}
	if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, fmt.Errorf("frontier: spill dir: %w", err)
	}
	budget := cfg.ResidentBudget
	if budget <= 0 {
		budget = DefaultResidentBudget
	}
	// A shard's resident set can exceed its fill budget by the one
	// promoted head-competitor ensureHead pulls in (see diskStore), so
	// reserve that slot per shard to keep the summed gauge under the
	// configured budget.
	per := budget/n - 1
	if per < 1 {
		per = 1
	}
	// The spill logs of builds before the shared segment log were one
	// frontier-NNNN.log file per shard; this build would ignore them.
	if old, _ := filepath.Glob(filepath.Join(cfg.SpillDir, "frontier-*.log")); len(old) > 0 {
		return nil, fmt.Errorf("frontier: %s is a spill log of an older layout, which this build does not read; "+
			"remove it (a shardd WAL rebuilds the spill logs on replay)", old[0])
	}
	for i := range q.shards {
		ds, err := openDiskStore(filepath.Join(cfg.SpillDir, fmt.Sprintf("frontier-%04d", i)), per)
		if err != nil {
			for _, s := range q.shards[:i] {
				s.st.close()
			}
			return nil, err
		}
		q.shards[i] = &shard{st: ds}
	}
	return q, nil
}

// Close releases the storage tier (flushing and closing the spill logs
// of a disk-backed queue). A no-op for the in-memory tier.
func (q *Sharded) Close() error {
	var first error
	for _, s := range q.shards {
		s.mu.Lock()
		err := s.st.close()
		s.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Tier reports the queue's residency split summed over shards: for the
// in-memory tier everything is resident; for the disk tier it is the
// materialized head versus the spilled log (the shardd gauges).
func (q *Sharded) Tier() TierStats {
	var t TierStats
	for _, s := range q.shards {
		s.mu.Lock()
		t = t.add(s.st.tier())
		s.mu.Unlock()
	}
	return t
}

// SetPoliteness changes the per-shard politeness gap. Negative gaps are
// treated as zero. Safe to call while pops are in flight; already-set
// shard deadlines are unaffected.
func (q *Sharded) SetPoliteness(minGap float64) {
	if minGap < 0 {
		minGap = 0
	}
	q.minGap.Store(math.Float64bits(minGap))
}

// Politeness returns the current per-shard politeness gap.
func (q *Sharded) Politeness() float64 {
	return math.Float64frombits(q.minGap.Load())
}

// NumShards returns the shard count.
func (q *Sharded) NumShards() int { return len(q.shards) }

// ShardOf returns the shard index url hashes to. All URLs of one host
// map to the same shard.
func (q *Sharded) ShardOf(url string) int {
	return HostShard(webgraph.SiteOf(url), len(q.shards))
}

func (q *Sharded) shardFor(url string) *shard { return q.shards[q.ShardOf(url)] }

// Push inserts or reschedules url in its shard.
func (q *Sharded) Push(url string, due, priority float64) {
	s := q.shardFor(url)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.put(Entry{URL: url, Due: due, Priority: priority})
}

// PushBatch inserts or reschedules every entry, equivalent to calling
// Push for each. The final queue state is independent of entry order,
// which is what lets remote implementations ship one frame per server
// instead of one per URL.
func (q *Sharded) PushBatch(entries []Entry) {
	for _, e := range entries {
		q.Push(e.URL, e.Due, e.Priority)
	}
}

// entryBefore reports whether a pops before b, mirroring entryHeap's
// order.
func entryBefore(a, b Entry) bool {
	if a.Due != b.Due {
		return a.Due < b.Due
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.URL < b.URL
}

// headDue reports the shard's head entry when it is poppable at now:
// unclaimed (when skipClaimed), politeness-ready, and due. The claim
// and politeness gates run before the store is consulted, so blocked
// shards never pay a disk-tier promotion.
func (s *shard) headDue(now float64, skipClaimed bool) (Entry, bool) {
	if (skipClaimed && s.claimed) || s.nextReady > now {
		return Entry{}, false
	}
	e, ok := s.st.head()
	if !ok || e.Due > now {
		return Entry{}, false
	}
	return e, true
}

// popDue removes and returns the globally earliest due entry among
// ready shards; claim additionally claims the winning shard. The shard
// index of the popped entry is returned for Release.
func (q *Sharded) popDue(now float64, claim bool) (Entry, int, bool) {
	for {
		best := -1
		var bestE Entry
		for i, s := range q.shards {
			s.mu.Lock()
			if e, ok := s.headDue(now, claim); ok && (best < 0 || entryBefore(e, bestE)) {
				best, bestE = i, e
			}
			s.mu.Unlock()
		}
		if best < 0 {
			return Entry{}, -1, false
		}
		s := q.shards[best]
		s.mu.Lock()
		// Re-validate under the lock: another goroutine may have raced
		// us to this shard's head. If so, rescan.
		if e, ok := s.headDue(now, claim); ok && e.URL == bestE.URL {
			got := s.st.popHead()
			s.nextReady = now + q.Politeness()
			if claim {
				s.claimed = true
			}
			s.mu.Unlock()
			return got, best, true
		}
		s.mu.Unlock()
	}
}

// PopDue removes and returns the earliest entry due at or before now
// across all politeness-ready shards; ok is false when nothing is
// poppable.
func (q *Sharded) PopDue(now float64) (Entry, bool) {
	e, _, ok := q.popDue(now, false)
	return e, ok
}

// ClaimDue is PopDue for worker pools: it additionally claims the
// winning shard exclusively, so no other worker can pop from it until
// Release. The returned shard index must be passed to Release.
func (q *Sharded) ClaimDue(now float64) (Entry, int, bool) {
	return q.popDue(now, true)
}

// HeadDue returns, without popping, the entry PopDue (or, with
// skipClaimed, ClaimDue) would return at now. It is the peek half of
// the two-step distributed pop: cluster.RemoteShards asks every shard
// server for its HeadDue candidate, picks the global minimum, and pops
// it from the winning server with PopDueMatch.
func (q *Sharded) HeadDue(now float64, skipClaimed bool) (Entry, bool) {
	found := false
	var bestE Entry
	for _, s := range q.shards {
		s.mu.Lock()
		if e, ok := s.headDue(now, skipClaimed); ok && (!found || entryBefore(e, bestE)) {
			found, bestE = true, e
		}
		s.mu.Unlock()
	}
	return bestE, found
}

// PopDueMatch pops url only if it is currently the poppable head of its
// shard at now — due, politeness-ready, and (when claim is set)
// unclaimed; claim additionally claims the shard. It is the commit half
// of the distributed pop: ok is false when the head moved since the
// caller peeked, in which case the caller rescans.
func (q *Sharded) PopDueMatch(now float64, url string, claim bool) (Entry, int, bool) {
	sid := q.ShardOf(url)
	s := q.shards[sid]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.headDue(now, claim)
	if !ok || e.URL != url {
		return Entry{}, -1, false
	}
	got := s.st.popHead()
	s.nextReady = now + q.Politeness()
	if claim {
		s.claimed = true
	}
	return got, sid, true
}

// roundOps is one ApplyRound's mutations grouped by shard, so a round
// locks each shard once instead of once per URL, and the window its
// peek fills. The buffers are reused from round to round.
type roundOps struct {
	// Op number k removes removes[k] (the round's pops, then its
	// removes) or, past those, puts pushes[k-len(removes)] — the
	// caller's slice, held only for the duration of the round.
	removes []string
	pushes  []Entry
	// order lists op numbers grouped by shard, in op order within a
	// shard; shard i's ops are order[start[i]:start[i+1]].
	order []int32
	start []int32
	sid   []int32 // shard of each op
	win   peekWindow
}

// group counting-sorts the round's ops by shard. The sort is stable, so
// within a shard removals still precede pushes — and ops on one URL
// always share a shard — which keeps the outcome (and a disk tier's log)
// what applying the ops one by one would produce.
func (r *roundOps) group(q *Sharded, pops, removes []string, pushes []Entry) {
	r.removes = append(append(r.removes[:0], pops...), removes...)
	r.pushes = pushes
	r.sid = r.sid[:0]
	for _, u := range r.removes {
		r.sid = append(r.sid, int32(q.ShardOf(u)))
	}
	for _, e := range pushes {
		r.sid = append(r.sid, int32(q.ShardOf(e.URL)))
	}
	r.start = append(r.start[:0], make([]int32, len(q.shards)+1)...)
	for _, s := range r.sid {
		r.start[s+1]++
	}
	for i := 1; i < len(r.start); i++ {
		r.start[i] += r.start[i-1]
	}
	r.order = append(r.order[:0], r.sid...) // sized; every slot is overwritten
	// Fill each shard's run front to back, then shift start back: after
	// the fill start[i] has advanced to the run's end, i.e. start[i+1].
	for k, s := range r.sid {
		r.order[r.start[s]] = int32(k)
		r.start[s]++
	}
	copy(r.start[1:], r.start)
	r.start[0] = 0
}

// applyAndPeek walks the shards one lock at a time: each applies its
// share of r's round, then is merged into r.win, which hands the store
// the list's current n-th entry as the cut-off its walk stops at. It
// returns the queue length. With win.n == 0 no peek is wanted and shards
// without round work are not touched.
func (q *Sharded) applyAndPeek(r *roundOps) (total int) {
	for i, s := range q.shards {
		ops := r.order[r.start[i]:r.start[i+1]]
		if len(ops) == 0 && r.win.n == 0 {
			continue
		}
		s.mu.Lock()
		for _, k := range ops {
			if k := int(k); k < len(r.removes) {
				s.st.remove(r.removes[k])
			} else {
				s.st.put(r.pushes[k-len(r.removes)])
			}
		}
		if r.win.n > 0 {
			total += s.st.size()
			s.st.topN(&r.win)
		}
		s.mu.Unlock()
	}
	return total
}

// ApplyRound applies one crawl-engine dispatch round in a single call:
// pops (entries the engine already consumed from a previous candidate
// prefix), removes (dropped pages; absent URLs are fine), then pushes —
// and returns the next peekMax pop candidates. With a zero politeness
// gap a pop is exactly a removal, so the round folds into plain queue
// operations; with a gap configured the round protocol is unsound
// (candidates could not see politeness deadlines) and ok is false with
// nothing applied. bound/boundOK mark the exactness limit of the
// candidates: entries not returned order strictly after bound (boundOK
// false means cands is the whole queue).
//
// Rounds are serialized, and cands aliases a buffer the next ApplyRound
// overwrites: the round protocol has one driver per queue (the engine
// goroutine, or the shard server under its WAL lock), which consumes or
// encodes the candidates before committing its next round.
//
// It is the server-side half of the cluster's opRound op, and the
// in-process frontier serves it too, so crawls drive local and remote
// shards through one code path (Rounds).
func (q *Sharded) ApplyRound(pops, removes []string, pushes []Entry, peekMax int) (cands []Entry, bound Entry, boundOK, ok bool) {
	if q.Politeness() > 0 {
		return nil, Entry{}, false, false
	}
	q.roundMu.Lock()
	defer q.roundMu.Unlock()
	r := &q.round
	r.group(q, pops, removes, pushes)
	r.win.reset(max(peekMax, 0))
	total := q.applyAndPeek(r)
	r.pushes = nil
	if peekMax <= 0 {
		return nil, Entry{}, false, true
	}
	cands = r.win.sorted()
	if total > peekMax && len(cands) > 0 {
		bound, boundOK = cands[len(cands)-1], true
	}
	return cands, bound, boundOK, true
}

// Release returns a claimed shard to the pool and sets its politeness
// deadline: no entry will be popped from it before nextReady.
func (q *Sharded) Release(shard int, nextReady float64) {
	s := q.shards[shard]
	s.mu.Lock()
	s.claimed = false
	if nextReady > s.nextReady {
		s.nextReady = nextReady
	}
	s.mu.Unlock()
}

// Peek returns the globally earliest entry without removing it,
// ignoring politeness and claims.
func (q *Sharded) Peek() (Entry, bool) {
	found := false
	var bestE Entry
	for _, s := range q.shards {
		s.mu.Lock()
		if e, ok := s.st.head(); ok && (!found || entryBefore(e, bestE)) {
			found, bestE = true, e
		}
		s.mu.Unlock()
	}
	return bestE, found
}

// NextEvent returns the earliest time any entry becomes poppable,
// accounting for per-shard politeness deadlines: the minimum over
// shards of max(head due, shard ready time). ok is false when the queue
// is empty.
func (q *Sharded) NextEvent() (float64, bool) {
	found := false
	var next float64
	for _, s := range q.shards {
		s.mu.Lock()
		if e, ok := s.st.head(); ok {
			t := e.Due
			if s.nextReady > t {
				t = s.nextReady
			}
			if !found || t < next {
				found, next = true, t
			}
		}
		s.mu.Unlock()
	}
	return next, found
}

// Reset empties every shard (truncating a disk tier's spill logs) and
// clears claims and politeness deadlines. A shard server resets between
// experiments so sequential crawls over one cluster start from a clean
// frontier.
func (q *Sharded) Reset() {
	for _, s := range q.shards {
		s.mu.Lock()
		s.st.reset()
		s.nextReady = 0
		s.claimed = false
		s.mu.Unlock()
	}
}

// ClearClaims releases every exclusive shard claim without touching
// politeness deadlines or entries. A shard server runs it when a fresh
// client session connects: claims held by a vanished previous client
// would otherwise wedge their shards forever.
func (q *Sharded) ClearClaims() {
	for _, s := range q.shards {
		s.mu.Lock()
		s.claimed = false
		s.mu.Unlock()
	}
}

// ShardState is one shard's scheduling state, as SnapshotMeta captures
// it for the shard server's WAL snapshot.
type ShardState struct {
	// NextReady is the shard's politeness deadline.
	NextReady float64
	// Claimed marks the shard as exclusively held by a worker.
	Claimed bool
}

// SnapshotMeta captures the queue's scheduling state — the politeness
// gap and every shard's (NextReady, Claimed) — without touching the
// entries. It is the header half of a streamed snapshot; StreamEntries
// is the body.
func (q *Sharded) SnapshotMeta() (politeness float64, shards []ShardState) {
	shards = make([]ShardState, len(q.shards))
	for i, s := range q.shards {
		s.mu.Lock()
		shards[i] = ShardState{NextReady: s.nextReady, Claimed: s.claimed}
		s.mu.Unlock()
	}
	return q.Politeness(), shards
}

// SetShardStates applies per-shard scheduling state captured by
// SnapshotMeta. It is a no-op when the shard count differs from the
// capture's (politeness deadlines and claims are meaningless across a
// re-shard).
func (q *Sharded) SetShardStates(shards []ShardState) {
	if len(shards) != len(q.shards) {
		return
	}
	for i, ss := range shards {
		s := q.shards[i]
		s.mu.Lock()
		s.nextReady = ss.NextReady
		s.claimed = ss.Claimed
		s.mu.Unlock()
	}
}

// StreamEntries emits every queued entry in chunks of at most chunk
// entries, holding at most one chunk in memory at a time — the WAL
// writes multi-gigabyte snapshots through it without doubling RSS. The
// chunk slice is reused between calls; emit must not retain it. Chunk
// order is deterministic for a given operation history but not sorted.
// Shards are locked one at a time, so a caller needing a consistent cut
// must pause mutations (the shard server holds its WAL lock).
func (q *Sharded) StreamEntries(chunk int, emit func([]Entry) error) error {
	if chunk < 1 {
		chunk = 1
	}
	buf := make([]Entry, 0, chunk)
	for _, s := range q.shards {
		s.mu.Lock()
		err := s.st.each(func(e Entry) error {
			buf = append(buf, e)
			if len(buf) == chunk {
				err := emit(buf)
				buf = buf[:0]
				return err
			}
			return nil
		})
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if len(buf) > 0 {
		return emit(buf)
	}
	return nil
}

// urlMaxHeap is a max-heap of entries by URL — the top-k structure that
// bounds ExtractPartitionsLimit's memory to the chunk it returns.
type urlMaxHeap []Entry

func (h urlMaxHeap) Len() int           { return len(h) }
func (h urlMaxHeap) Less(i, j int) bool { return h[i].URL > h[j].URL }
func (h urlMaxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *urlMaxHeap) Push(x any)        { *h = append(*h, x.(Entry)) }
func (h *urlMaxHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// ExtractPartitionsLimit removes and returns the queued entries whose
// site hashes into one of the given ring partitions (HostShard over
// parts buckets — the cluster ring's key fold, which is independent of
// this queue's shard count): the first maxN of them in URL order
// strictly after the cursor (maxN <= 0 means unbounded, empty cursor
// means from the start), sorted by URL; more reports that matching
// entries beyond the returned chunk remain. Entries outside the
// partition set are untouched, as are politeness deadlines and claims.
// It is the server half of the chunked migration export: a disk-tier
// frontier hands off its partitions chunk by chunk, never holding more
// than maxN full entries in memory, and the result depends only on the
// queue state and arguments — never on shard iteration order — so a
// WAL replay re-produces each chunk bit for bit.
func (q *Sharded) ExtractPartitionsLimit(parts int, set map[int]bool, after string, maxN int) (out []Entry, more bool) {
	var sel urlMaxHeap
	for _, s := range q.shards {
		s.mu.Lock()
		s.st.each(func(e Entry) error {
			if (after != "" && e.URL <= after) || !set[HostShard(webgraph.SiteOf(e.URL), parts)] {
				return nil
			}
			if maxN > 0 && len(sel) >= maxN {
				more = true
				if e.URL >= sel[0].URL {
					return nil
				}
				heap.Pop(&sel)
			}
			heap.Push(&sel, e)
			return nil
		})
		s.mu.Unlock()
	}
	out = make([]Entry, len(sel))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&sel).(Entry)
	}
	for _, e := range out {
		q.Remove(e.URL)
	}
	return out, more
}

// Remove deletes url from its shard, reporting whether it was present.
func (q *Sharded) Remove(url string) bool {
	s := q.shardFor(url)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.remove(url)
}

// Contains reports whether url is queued.
func (q *Sharded) Contains(url string) bool {
	s := q.shardFor(url)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.contains(url)
}

// Len returns the total number of queued entries.
func (q *Sharded) Len() int {
	n := 0
	for _, s := range q.shards {
		s.mu.Lock()
		n += s.st.size()
		s.mu.Unlock()
	}
	return n
}

// URLs returns all queued URLs in sorted order.
func (q *Sharded) URLs() []string {
	var out []string
	for _, s := range q.shards {
		s.mu.Lock()
		s.st.each(func(e Entry) error {
			out = append(out, e.URL)
			return nil
		})
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// ShardLens returns the entry count of every shard (observability and
// balance tests).
func (q *Sharded) ShardLens() []int {
	out := make([]int, len(q.shards))
	for i, s := range q.shards {
		s.mu.Lock()
		out[i] = s.st.size()
		s.mu.Unlock()
	}
	return out
}
