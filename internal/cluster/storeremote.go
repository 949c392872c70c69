package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"webevolve/internal/registry"
	"webevolve/internal/store"
)

// RemoteStore is the client for one or more store servers (StoreServer
// / storerd): it hands out store.Collection implementations whose
// every operation is a wire round trip, reusing the shard client's
// pooled connections and redial/retry/backoff machinery. Mutating ops
// carry request IDs the server dedups, so a retry after a broken
// connection is applied exactly once.
//
// With several members (a registry's store members, see Topology), each
// collection is pinned to one member — the consistent-hash owner of
// its *name* — when it is first opened, and every op on that
// collection goes to the pinned member for the collection's lifetime.
// Store data is NOT migrated on membership change: a collection
// created under one member set may be unreachable under another
// (documented limitation; the store is a cache of the web, and a miss
// re-fetches). Admin ops (ListCollections, Reset, DropCollection) fan
// out to every member.
//
// Unlike the frontier's error-free ShardSet, store.Collection returns
// errors, so transport failures surface directly from each call; the
// first one is also recorded and available from Err for the two
// methods (Len, URLs) whose signatures cannot carry it.
type RemoteStore struct {
	members []*serverConns
	ring    *Ring

	reqBase uint64
	reqSeq  atomic.Uint64

	closed atomic.Bool

	failMu sync.Mutex
	failed error
}

// DialStore connects to a single store server.
func DialStore(dial Dialer, opts Options) (*RemoteStore, error) {
	return dialStores([]registry.Member{staticStore}, func(registry.Member) Dialer { return dial }, opts)
}

// dialStores connects to the given store members; collection names
// are consistent-hashed across their identities (see the RemoteStore
// doc). The member set is fixed at dial time: stores are not migrated,
// so a client keeps the pinning it resolved (re-dial to pick up joins).
func dialStores(members []registry.Member, dialFor func(m registry.Member) Dialer, opts Options) (*RemoteStore, error) {
	rs := &RemoteStore{reqBase: randomReqBase(), ring: NewRing(memberAddrs(members), 0)}
	byName := make(map[string]registry.Member, len(members))
	for _, m := range members {
		byName[m.Addr] = m
	}
	for _, name := range rs.ring.Members() {
		sc := newServerConns(name, dialFor(byName[name]), opts, &rs.closed)
		sc.helloOp = opStoreHello // the store hello body is empty
		sc.checkHello = sc.checkStoreHello
		if err := sc.dialEager(nil, name+" (%v)"); err != nil {
			rs.Close()
			return nil, fmt.Errorf("cluster: %s: %w", name, err)
		}
		rs.members = append(rs.members, sc)
	}
	return rs, nil
}

// DialStoreTCP connects to a store server at a host:port address.
func DialStoreTCP(addr string, opts Options) (*RemoteStore, error) {
	return DialStore(tcpDialer(addr), opts)
}

// scFor returns the member a collection name is pinned to.
func (rs *RemoteStore) scFor(name string) *serverConns {
	return rs.members[rs.ring.Owner(rs.ring.PartOfKey(name))]
}

// LoopbackStore connects to an in-process store server over net.Pipe —
// no sockets, fully deterministic, for tests and benchmarks.
func LoopbackStore(srv *StoreServer, opts Options) (*RemoteStore, error) {
	return DialStore(srv.Pipe, opts)
}

// nextReq returns a fresh request ID (never zero).
func (rs *RemoteStore) nextReq() uint64 {
	id := rs.reqBase + rs.reqSeq.Add(1)
	if id == 0 {
		id = rs.reqBase + rs.reqSeq.Add(1)
	}
	return id
}

// fail records the first transport error for Err.
func (rs *RemoteStore) fail(err error) error {
	rs.failMu.Lock()
	if rs.failed == nil {
		rs.failed = err
	}
	rs.failMu.Unlock()
	return err
}

// Err returns the first transport error, if any. Collection calls
// return their errors directly; Err additionally catches failures in
// Len and URLs, whose signatures cannot.
func (rs *RemoteStore) Err() error {
	rs.failMu.Lock()
	defer rs.failMu.Unlock()
	return rs.failed
}

// RoundTrips returns the request frames sent (retries included),
// summed across members.
func (rs *RemoteStore) RoundTrips() int64 {
	var n int64
	for _, sc := range rs.members {
		n += sc.trips.Load()
	}
	return n
}

// WireBytes returns the total bytes sent to and received from the
// store servers (frame overhead included) — see RemoteShards.WireBytes.
func (rs *RemoteStore) WireBytes() (in, out int64) {
	for _, sc := range rs.members {
		in += sc.bytesIn.Load()
		out += sc.bytesOut.Load()
	}
	return in, out
}

// Close closes the pooled connections. Server-side collections stay
// open (and, for a disk backend, durable): closing the client of a
// persistent store must not destroy the store.
func (rs *RemoteStore) Close() error {
	rs.closed.Store(true)
	for _, sc := range rs.members {
		sc.drainClose()
	}
	return nil
}

// ListCollections returns the names of every collection on every
// member (open or on disk), merged and sorted.
func (rs *RemoteStore) ListCollections() ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, sc := range rs.members {
		resp, err := sc.roundTrip(opStoreList, nil)
		if err != nil {
			return nil, rs.fail(err)
		}
		d := newDec(resp)
		for _, name := range decodeStrings(d, "") {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
		if err := d.finish(); err != nil {
			return nil, rs.fail(fmt.Errorf("cluster: bad list response: %w", err))
		}
	}
	sort.Strings(out)
	return out, nil
}

// DropCollection closes a named collection server-side and removes its
// backing data — explicit reclamation for collections a vanished
// client left behind. It fans out to every member: after a membership
// change the collection may live on a member the current ring no
// longer pins it to.
func (rs *RemoteStore) DropCollection(name string) error {
	var e enc
	e.fix64(rs.nextReq()).str(name)
	for _, sc := range rs.members {
		if _, err := sc.roundTrip(opStoreDrop, e.b); err != nil {
			return rs.fail(err)
		}
	}
	return nil
}

// Reset drops every collection on every member, so sequential
// experiments over one store cluster each start from empty. Never
// called on a store being used incrementally (it deletes the data).
func (rs *RemoteStore) Reset() error {
	var e enc
	e.fix64(rs.nextReq())
	for _, sc := range rs.members {
		if _, err := sc.roundTrip(opStoreReset, e.b); err != nil {
			return rs.fail(err)
		}
	}
	return nil
}

// Collection returns the named collection, created empty on first use
// on the member the name hashes to; the pinning holds for the returned
// handle's lifetime. Its Close is a client-side no-op: the collection
// belongs to the server and survives for the next run (webcrawl's
// incremental contract).
func (rs *RemoteStore) Collection(name string) store.Collection {
	return &remoteColl{rs: rs, sc: rs.scFor(name), name: name}
}

// EphemeralCollection is Collection, except Close drops the collection
// server-side (data included) — the lifecycle of a retired shadow
// generation.
func (rs *RemoteStore) EphemeralCollection(name string) store.Collection {
	return &remoteColl{rs: rs, sc: rs.scFor(name), name: name, dropOnClose: true}
}

// Shadowed builds a crawler's collection pair on the store servers:
// each shadow generation is an ephemeral collection ("gen-1", "gen-2",
// ...), dropped once retired, and the pair's Close drops the rest. A
// predecessor that died before closing its pair may have left
// generations on a durable server; they are reclaimed first, so the
// pair starts genuinely fresh, without touching any other collection
// (e.g. a webcrawl's "pages"). One crawler owns a store server's
// generations at a time.
func (rs *RemoteStore) Shadowed() (*store.Shadowed, error) {
	names, err := rs.ListCollections()
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if isGenName(n) {
			if err := rs.DropCollection(n); err != nil {
				return nil, err
			}
		}
	}
	gen := 0
	return store.NewShadowed(nil, func() (store.Collection, error) {
		gen++
		return rs.EphemeralCollection(fmt.Sprintf("gen-%d", gen)), nil
	})
}

// isGenName reports whether a collection name is a shadow generation
// ("gen-<number>").
func isGenName(name string) bool {
	rest, ok := strings.CutPrefix(name, "gen-")
	if !ok || rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return false
		}
	}
	return true
}

// remoteColl implements store.Collection over the wire, pinned to one
// member.
type remoteColl struct {
	rs          *RemoteStore
	sc          *serverConns
	name        string
	dropOnClose bool
}

var _ store.Collection = (*remoteColl)(nil)

// storePutChunk caps the records carried by one opStorePutBatch frame;
// the byte budget (storeChunkBytes) binds first when records carry
// page bodies, so no chunk can assemble an unsendable frame (the
// pushBatchChunk rationale, count- and byte-bounded).
const storePutChunk = 1024

// Put implements store.Collection.
func (c *remoteColl) Put(rec store.PageRecord) error {
	return c.PutBatch([]store.PageRecord{rec})
}

// PutBatch implements store.Collection.
func (c *remoteColl) PutBatch(recs []store.PageRecord) error {
	for _, rec := range recs {
		if rec.URL == "" {
			return errors.New("store: empty URL")
		}
	}
	for off := 0; off < len(recs); {
		// Grow the chunk until the count cap or the byte budget; a
		// single over-budget record still travels alone.
		end, bytes := off, 0
		for end < len(recs) && end-off < storePutChunk {
			sz := approxRecordSize(recs[end])
			if end > off && bytes+sz > storeChunkBytes {
				break
			}
			bytes += sz
			end++
		}
		chunk := recs[off:end]
		off = end
		e := getEnc()
		e.fix64(c.rs.nextReq())
		e.str(c.name)
		e.u32(uint32(len(chunk)))
		prev := ""
		for _, rec := range chunk {
			encodeRecord(e, prev, rec)
			prev = rec.URL
		}
		_, err := c.sc.roundTrip(opStorePutBatch, e.b)
		putEnc(e)
		if err != nil {
			return c.rs.fail(err)
		}
	}
	return nil
}

// Get implements store.Collection.
func (c *remoteColl) Get(url string) (store.PageRecord, bool, error) {
	var e enc
	e.str(c.name).str(url)
	resp, err := c.sc.roundTrip(opStoreGet, e.b)
	if err != nil {
		return store.PageRecord{}, false, c.rs.fail(err)
	}
	d := newDec(resp)
	if !d.bool() {
		return store.PageRecord{}, false, d.finish()
	}
	rec := decodeRecord(d, "")
	if err := d.finish(); err != nil {
		return store.PageRecord{}, false, c.rs.fail(fmt.Errorf("cluster: bad get response: %w", err))
	}
	return rec, true, nil
}

// Delete implements store.Collection.
func (c *remoteColl) Delete(url string) error {
	var e enc
	e.fix64(c.rs.nextReq()).str(c.name).str(url)
	if _, err := c.sc.roundTrip(opStoreDelete, e.b); err != nil {
		return c.rs.fail(err)
	}
	return nil
}

// Len implements store.Collection; transport failures are recorded in
// Err and read as empty.
func (c *remoteColl) Len() int {
	var e enc
	e.str(c.name)
	resp, err := c.sc.roundTrip(opStoreLen, e.b)
	if err != nil {
		c.rs.fail(err)
		return 0
	}
	d := newDec(resp)
	return int(d.u32())
}

// URLs implements store.Collection; the sorted list arrives in bounded
// chunks, each resuming after the previous chunk's last URL. Transport
// failures are recorded in Err and read as empty.
func (c *remoteColl) URLs() []string {
	var out []string
	after := ""
	for {
		var e enc
		e.str(c.name).str(after).u32(storeURLsChunk)
		resp, err := c.sc.roundTrip(opStoreURLs, e.b)
		if err != nil {
			c.rs.fail(err)
			return nil
		}
		d := newDec(resp)
		chunk := decodeStrings(d, after)
		done := d.bool()
		if d.finish() != nil {
			c.rs.fail(errors.New("cluster: bad URLs response"))
			return nil
		}
		out = append(out, chunk...)
		if done || len(chunk) == 0 {
			return out
		}
		after = out[len(out)-1]
	}
}

// Scan implements store.Collection: the sorted scan ships as bounded
// chunks, each resuming strictly after the previous chunk's last URL.
// Unlike the local disk scan (one pinned snapshot), records written
// between chunks may or may not be seen — the engines never scan a
// collection they are concurrently writing.
func (c *remoteColl) Scan(fn func(store.PageRecord) bool) error {
	return c.ScanFrom("", fn)
}

// ScanFrom implements store.Collection: the wire scan already resumes
// strictly after a URL per chunk, so a paged consumer's resume point
// simply seeds the first chunk's cursor.
func (c *remoteColl) ScanFrom(after string, fn func(store.PageRecord) bool) error {
	for {
		var e enc
		e.str(c.name).str(after).u32(storeScanChunk)
		resp, err := c.sc.roundTrip(opStoreScan, e.b)
		if err != nil {
			return c.rs.fail(err)
		}
		d := newDec(resp)
		n := int(d.u32())
		for i := 0; i < n; i++ {
			rec := decodeRecord(d, after)
			if err := d.finish(); err != nil {
				return c.rs.fail(fmt.Errorf("cluster: bad scan response: %w", err))
			}
			if !fn(rec) {
				return nil
			}
			after = rec.URL
		}
		done := d.bool()
		if err := d.finish(); err != nil {
			return c.rs.fail(fmt.Errorf("cluster: bad scan response: %w", err))
		}
		if done {
			return nil
		}
	}
}

// Close implements store.Collection. For an ephemeral collection it
// drops the server-side data; otherwise the collection stays on the
// server and this is a no-op (see RemoteStore.Close).
func (c *remoteColl) Close() error {
	if !c.dropOnClose {
		return nil
	}
	var e enc
	e.fix64(c.rs.nextReq()).str(c.name)
	if _, err := c.sc.roundTrip(opStoreDrop, e.b); err != nil {
		return c.rs.fail(err)
	}
	return nil
}
