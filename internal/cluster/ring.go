package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"webevolve/internal/frontier"
	"webevolve/internal/webgraph"
)

// The consistent-hash ring that maps work to cluster members. Keys are
// never placed on the ring directly: the key space is first folded into
// a fixed number of partitions (DefaultPartitions), and the ring maps
// each partition to the member owning it. The indirection is what makes
// live migration tractable — a membership change moves whole
// partitions, so the set of keys that change owner is exactly the set
// of moved partitions, enumerable without scanning any key.
//
// Placement is deterministic: members are sorted, every hash is FNV-64
// over stable strings, and ties cannot occur (vnode points are
// deduplicated by first-sorted-member-wins). Two processes that see the
// same member list at the same partition count always agree on every
// owner, which is what lets the single crawl client migrate entries
// while servers stay passive.

// DefaultPartitions is the ring's partition count. 1024 partitions
// over at most a few dozen members keeps the max/min member load ratio
// small (see TestRingBalance) while keeping moved-set enumeration and
// per-partition export cheap.
const DefaultPartitions = 1024

// ringVnodes is the number of virtual points each member contributes.
// More vnodes flatten the load distribution at the cost of a larger
// sorted point slice; 256 holds the measured 1–16 member balance ratio
// at ≤1.53 (the test asserts ≤2).
const ringVnodes = 256

// Ring is an immutable consistent-hash ring over a member set. Build
// one with NewRing; derive the next epoch's ring with NewRing over the
// new member list and diff with Moved.
type Ring struct {
	members []string // sorted, unique
	parts   int
	owner   []int // partition -> index into members
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	// FNV-1a barely diffuses trailing bytes (the last byte sees one
	// multiply), so keys differing only in a numeric suffix — exactly
	// our "part|N" and "member|v" keys — come out nearly sequential.
	// A splitmix64-style finalizer avalanches them across the ring.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type ringPoint struct {
	hash   uint64
	member int
}

// NewRing builds the ring for the given member names (addresses) at
// the given partition count (0 means DefaultPartitions). The member
// list is copied, deduplicated and sorted; order does not matter. An
// empty member list yields a ring whose Owner is -1 everywhere.
func NewRing(members []string, parts int) *Ring {
	if parts <= 0 {
		parts = DefaultPartitions
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, parts: parts, owner: make([]int, parts)}
	if len(uniq) == 0 {
		for p := range r.owner {
			r.owner[p] = -1
		}
		return r
	}
	points := make([]ringPoint, 0, len(uniq)*ringVnodes)
	for mi, m := range uniq {
		for v := 0; v < ringVnodes; v++ {
			points = append(points, ringPoint{hash64(fmt.Sprintf("%s|%d", m, v)), mi})
		}
	}
	// Sort by hash; on the (astronomically unlikely) collision the
	// first sorted member wins, keeping the tiebreak deterministic.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].member < points[j].member
	})
	for p := 0; p < parts; p++ {
		h := hash64(fmt.Sprintf("part|%d", p))
		i := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
		if i == len(points) {
			i = 0 // wrap: first point clockwise
		}
		r.owner[p] = points[i].member
	}
	return r
}

// Parts returns the ring's partition count.
func (r *Ring) Parts() int { return r.parts }

// Members returns the sorted member list. Callers must not modify it.
func (r *Ring) Members() []string { return r.members }

// Owner returns the index (into Members) of the member owning
// partition p, or -1 if the ring is empty.
func (r *Ring) Owner(p int) int { return r.owner[p] }

// OwnerName returns the name of the member owning partition p, or ""
// if the ring is empty.
func (r *Ring) OwnerName(p int) string {
	i := r.owner[p]
	if i < 0 {
		return ""
	}
	return r.members[i]
}

// PartOf returns the partition a URL's host falls in. All URLs of one
// site share a partition, so site affinity (politeness, claims) holds
// across membership changes.
func (r *Ring) PartOf(url string) int {
	return frontier.HostShard(webgraph.SiteOf(url), r.parts)
}

// PartOfKey returns the partition an opaque key (for example a store
// collection name) falls in.
func (r *Ring) PartOfKey(key string) int {
	return frontier.HostShard(key, r.parts)
}

// Moved returns the partitions whose owning member *name* differs
// between r and next, in ascending order: exactly the partitions whose
// entries must migrate when the membership changes from r to next.
// Partitions unowned on either side (empty ring) are included whenever
// the names differ, since "" never equals a real member name.
func (r *Ring) Moved(next *Ring) []int {
	if next.parts != r.parts {
		// Partition counts are fixed per cluster; a mismatch means the
		// caller mixed rings from different clusters. Every partition
		// is "moved" — the safe answer — but this should not happen.
		all := make([]int, r.parts)
		for p := range all {
			all[p] = p
		}
		return all
	}
	var moved []int
	for p := 0; p < r.parts; p++ {
		if r.OwnerName(p) != next.OwnerName(p) {
			moved = append(moved, p)
		}
	}
	return moved
}
