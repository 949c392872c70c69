package cluster

// Registry-driven membership for RemoteShards: the client polls a
// MembershipSource (normally a registry.Client) for the versioned
// member set, and when a shard migration is pending it *drives* the
// migration itself — the single crawl client is the only mutator of
// the frontier, so migrating at one of the engine's quiescent round
// boundaries needs no server-to-server coordination:
//
//  1. Read the membership. If a pending shard set exists, build the
//     pending ring and diff it against the installed one: the moved
//     partitions are exactly the keys changing owner.
//  2. Export the moved partitions from EVERY connected member (the
//     union of the installed and pending sets), not just the computed
//     old owners. Members holding nothing return empty — but a client
//     that crashed mid-migration, or a Complete lost to a stale epoch,
//     leaves entries parked on members the new ring does not map them
//     to, and exporting from everyone reclaims them on the next pass.
//     The migration is self-healing by construction.
//  3. Group the exported entries by their pending-ring owner and
//     import them (chunked, with the exporters' recent dedup tails).
//  4. Complete(pendingEpoch) at the registry. Only success installs
//     the pending topology; a stale epoch means the membership moved
//     under us, and the next Rebalance recomputes from scratch.
//
// A registry outage keeps the last-known epoch: Rebalance returns nil
// and the crawl continues against the installed topology (the
// documented failure mode). Transport errors against shard members
// during a migration are different — entries could otherwise be
// extracted but never land — so they go sticky via Err like any other
// frontier op.

import (
	"cmp"
	"fmt"
	"sort"
	"time"

	"webevolve/internal/frontier"
	"webevolve/internal/registry"
)

// MembershipSource feeds RemoteShards its member set; registry.Client
// implements it, and so does a static list's fixed membership.
type MembershipSource interface {
	Membership() (registry.Membership, error)
	Complete(pendEpoch uint64) error
}

// DialMembership connects to the shard cluster named by a membership
// source, dialing each member through dialFor. The installed topology
// tracks the source's epoch via Rebalance.
func DialMembership(src MembershipSource, dialFor func(m registry.Member) Dialer, opts Options) (*RemoteShards, error) {
	ms, err := src.Membership()
	if err != nil {
		return nil, fmt.Errorf("cluster: membership: %w", err)
	}
	return dialShards(src, ms, dialFor, opts)
}

// dialShards is DialMembership over a membership already read from src.
func dialShards(src MembershipSource, ms registry.Membership, dialFor func(m registry.Member) Dialer, opts Options) (*RemoteShards, error) {
	shard := ms.Shard()
	if len(shard) == 0 {
		return nil, fmt.Errorf("cluster: no shard servers in the membership (epoch %d)", ms.Epoch)
	}
	rs := &RemoteShards{opts: opts, src: src, dialFor: dialFor}
	rs.reqBase = randomReqBase()
	names := make([]string, len(shard))
	servers := make([]*serverConns, len(shard))
	sort.Slice(shard, func(i, j int) bool { return shard[i].Addr < shard[j].Addr })
	for i, m := range shard {
		sc := rs.newShardMember(m)
		if err := sc.dialEager("member " + m.Addr + " (%v)"); err != nil {
			rs.Close()
			return nil, fmt.Errorf("cluster: member %s: %w", m.Addr, err)
		}
		names[i] = m.Addr
		servers[i] = sc
	}
	rs.installTopology(ms.Epoch, NewRing(names, 0), servers)
	registry.EpochGauge.Set(int64(ms.Epoch))
	rs.lastPoll = time.Now()
	if ms.Migrating {
		// A migration is already pending (a join no client has driven
		// yet, or a predecessor crashed mid-flight); adopt it before the
		// first op routes anything.
		rs.rebalMu.Lock()
		err := rs.migrateLocked(rs.t(), ms)
		rs.rebalMu.Unlock()
		if err != nil {
			rs.Close()
			return nil, err
		}
	}
	return rs, nil
}

// newShardMember builds and registers the (undialed) pool for one
// registry member.
func (rs *RemoteShards) newShardMember(m registry.Member) *serverConns {
	sc := rs.newServerConns("member "+m.Addr, rs.dialFor(m), rs.opts)
	sc.helloOp = opShardHello
	sc.checkHello = sc.checkShardHello
	return sc
}

// primeLazy fills a fresh pool with empty slots, so every connection
// dials on first use — the lazily-connecting counterpart of dialEager,
// for members joining mid-run.
func (sc *serverConns) primeLazy() {
	for i := 0; i < cap(sc.pool); i++ {
		sc.pool <- nil
	}
}

// Rebalance polls the membership source and, when the epoch moved,
// re-resolves the topology — driving a live shard migration if one is
// pending. It must only be called at quiescent round boundaries (no
// in-flight ops); core's engines call it at the top of
// their steady/batch loops. Calls are rate-limited to one membership
// read per rebalancePoll; a broken or closed client returns
// immediately. A static list's fixed membership never moves, so its
// polls find nothing to do.
//
// The error is non-nil only for a migration that failed against a
// shard member (also recorded sticky via Err); registry unavailability
// is absorbed — the crawl continues on the last-known epoch.
func (rs *RemoteShards) Rebalance() error {
	if rs.closed.Load() || rs.broken() {
		return nil
	}
	rs.rebalMu.Lock()
	defer rs.rebalMu.Unlock()
	poll := cmp.Or(rs.opts.t.poll, rebalancePoll)
	if poll > 0 && !rs.lastPoll.IsZero() && time.Since(rs.lastPoll) < poll {
		return nil
	}
	rs.lastPoll = time.Now()
	ms, err := rs.src.Membership()
	if err != nil {
		return nil // registry outage: keep the last-known epoch
	}
	registry.EpochGauge.Set(int64(ms.Epoch))
	t := rs.t()
	if ms.Migrating {
		return rs.migrateLocked(t, ms)
	}
	if !sameMembers(t.ring.Members(), memberAddrs(ms.Shard())) {
		// The active set changed without a pending migration: a lease
		// expiry force-removed a member (or the registry restarted with
		// a different view). There is no one to export from — the dead
		// member's entries come back via its WAL when it rejoins — so
		// just re-resolve routing against the surviving set.
		if len(ms.Shard()) == 0 {
			return nil // never install an empty ring; keep last-known
		}
		rs.installMembersLocked(t, ms.Epoch, ms.Shard())
	}
	return nil
}

// exportChunk caps the entries carried by one opShardExport reply.
// 8192 entries at typical URL lengths is well under a megabyte — far
// from the protocol's maxFrame — so moving a large partition stays a
// short sequence of valid frames instead of one oversized, unsendable
// one.
const exportChunk = 8192

// migrateLocked drives one pending migration (rebalMu held).
func (rs *RemoteShards) migrateLocked(t *shardTopology, ms registry.Membership) error {
	target := ms.Pending
	if len(target) == 0 {
		// "Migrate to nothing" cannot be completed while the frontier
		// may hold entries: the last shard server cannot leave under a
		// live crawl. Keep the installed epoch; a joiner unblocks it.
		return nil
	}
	sort.Slice(target, func(i, j int) bool { return target[i].Addr < target[j].Addr })
	nextRing := NewRing(memberAddrs(target), 0)
	moved := t.ring.Moved(nextRing)

	// Assemble the union of installed and pending members, reusing the
	// pools we already hold and dialing the rest lazily (the pool dials
	// on first use; a member that never receives an op is never dialed).
	pools := map[string]*serverConns{}
	for i, name := range t.ring.Members() {
		pools[name] = t.servers[i]
	}
	for _, m := range target {
		if _, ok := pools[m.Addr]; !ok {
			sc := rs.newShardMember(m)
			sc.primeLazy()
			pools[m.Addr] = sc
		}
	}

	if len(moved) > 0 {
		// Export the moved partitions from every member of the union —
		// see the package comment for why not just the computed owners.
		// Exports are pulled in bounded chunks (the server walks its
		// frontier with a URL cursor and hands back at most
		// pushBatchChunk entries per round trip), and each chunk is
		// grouped by new owner and imported before the next is pulled —
		// so migrating a spilled frontier never materializes it whole on
		// either side of the wire.
		var dedups []dedupEntry
		// dedupSent tracks how much of the exporters' dedup tails each
		// importer has received: a retry of migrated work may route
		// anywhere on the new ring, so every importer must end up with
		// the full union even though it grows as later members export.
		dedupSent := map[string]int{}
		imp := func(addr string, entries []frontier.Entry) error {
			sc, ok := pools[addr]
			if !ok {
				return rs.fail(fmt.Errorf("cluster: migration: no pool for new owner %s", addr))
			}
			pending := dedups[dedupSent[addr]:]
			var e enc
			e.fix64(rs.nextReq())
			encodeEntries(&e, entries)
			e.u32(uint32(len(pending)))
			for _, de := range pending {
				e.fix64(de.id).u8(de.status).bytes(de.resp)
			}
			if _, err := rs.call(sc, opShardImport, e.b); err != nil {
				return err
			}
			dedupSent[addr] = len(dedups)
			return nil
		}
		union := sortedKeys(pools)
		for _, addr := range union {
			sc := pools[addr]
			after := ""
			for {
				var e enc
				e.fix64(rs.nextReq())
				e.u32(uint32(nextRing.Parts())).u32(uint32(len(moved)))
				for _, p := range moved {
					e.u32(uint32(p))
				}
				e.str(after).u32(uint32(exportChunk))
				resp, err := rs.call(sc, opShardExport, e.b)
				if err != nil {
					return err
				}
				d := newDec(resp)
				entries := decodeEntries(d)
				dn := int(d.u32())
				for i := 0; i < dn && d.finish() == nil; i++ {
					id, st, b := d.fix64(), d.u8(), d.bytes()
					if d.finish() == nil {
						dedups = append(dedups, dedupEntry{id: id, status: st, resp: append([]byte(nil), b...)})
					}
				}
				more := d.bool()
				if err := rs.check(sc, opShardExport, d); err != nil {
					return err
				}
				groups := map[string][]frontier.Entry{}
				for _, ent := range entries {
					owner := nextRing.OwnerName(nextRing.PartOf(ent.URL))
					groups[owner] = append(groups[owner], ent)
				}
				for _, gaddr := range sortedKeys(groups) {
					if err := imp(gaddr, groups[gaddr]); err != nil {
						return err
					}
				}
				if !more || len(entries) == 0 {
					break
				}
				after = entries[len(entries)-1].URL
			}
		}
		// Importers that received entries before later exporters' dedup
		// tails were known get topped up with the remainder.
		for _, addr := range sortedKeys(dedupSent) {
			if dedupSent[addr] < len(dedups) {
				if err := imp(addr, nil); err != nil {
					return err
				}
			}
		}
	}

	// Entries are placed; flip the epoch. A stale epoch means the
	// membership moved while we migrated — entries are parked where the
	// *attempted* ring put them, and the next Rebalance reclaims them
	// via export-from-all. Keep the installed topology either way until
	// a Complete of ours succeeds.
	if err := rs.src.Complete(ms.PendingEpoch); err != nil {
		rs.lastPoll = time.Time{} // retry on the next Rebalance call
		return nil
	}
	servers := make([]*serverConns, len(target))
	for i, m := range target {
		servers[i] = pools[m.Addr]
	}
	rs.installTopology(ms.PendingEpoch, nextRing, servers)
	migrationsTotal.Inc()
	// Retire pools for members no longer in the ring.
	inNext := map[string]bool{}
	for _, m := range target {
		inNext[m.Addr] = true
	}
	for addr, sc := range pools {
		if !inNext[addr] {
			sc.drainClose()
		}
	}
	return nil
}

// installMembersLocked re-resolves the topology against an active
// member set with no migration to drive (rebalMu held).
func (rs *RemoteShards) installMembersLocked(t *shardTopology, epoch uint64, shard []registry.Member) {
	sort.Slice(shard, func(i, j int) bool { return shard[i].Addr < shard[j].Addr })
	pools := map[string]*serverConns{}
	for i, name := range t.ring.Members() {
		pools[name] = t.servers[i]
	}
	servers := make([]*serverConns, len(shard))
	keep := map[string]bool{}
	for i, m := range shard {
		sc, ok := pools[m.Addr]
		if !ok {
			sc = rs.newShardMember(m)
			sc.primeLazy()
		}
		servers[i] = sc
		keep[m.Addr] = true
	}
	rs.installTopology(epoch, NewRing(memberAddrs(shard), 0), servers)
	for addr, sc := range pools {
		if !keep[addr] {
			sc.drainClose()
		}
	}
}

func memberAddrs(members []registry.Member) []string {
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = m.Addr
	}
	return out
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
