package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"webevolve/internal/registry"
	"webevolve/internal/store"
)

// RemoteStore is the client for one or more store servers (StoreServer
// / storerd): it hands out store.Collection implementations whose
// every operation is a wire round trip. It shares the shard client's
// core (request IDs, the sticky first error, wire accounting and Close)
// and its pooled connections and redial/retry/backoff machinery.
// Mutating ops carry request IDs the server dedups, so a retry after a
// broken connection is applied exactly once.
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
// errors, so transport failures and undecodable replies surface
// directly from each call; the first one is also recorded and
// available from Err for the two methods (Len, URLs) whose signatures
// cannot carry it.
type RemoteStore struct {
	members []*serverConns
	ring    *Ring

	client
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
	rs := &RemoteStore{ring: NewRing(memberAddrs(members), 0)}
	rs.reqBase = randomReqBase()
	byName := make(map[string]registry.Member, len(members))
	for _, m := range members {
		byName[m.Addr] = m
	}
	for _, name := range rs.ring.Members() {
		sc := rs.newServerConns(name, dialFor(byName[name]), opts)
		sc.helloOp = opStoreHello
		sc.checkHello = sc.checkStoreHello
		if err := sc.dialEager(name + " (%v)"); err != nil {
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

// ListCollections returns the names of every collection on every
// member (open or on disk), merged and sorted.
func (rs *RemoteStore) ListCollections() ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, sc := range rs.members {
		resp, err := rs.call(sc, opStoreList, nil)
		if err != nil {
			return nil, err
		}
		d := newDec(resp)
		names := decodeStrings(d, "")
		if err := rs.check(sc, opStoreList, d); err != nil {
			return nil, err
		}
		for _, name := range names {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
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
		if _, err := rs.call(sc, opStoreDrop, e.b); err != nil {
			return err
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
		if _, err := rs.call(sc, opStoreReset, e.b); err != nil {
			return err
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

// storePutChunk caps the records carried by one opStorePutValues
// frame; the byte budget (storeChunkBytes) binds first when records
// carry page bodies, so no chunk can assemble an unsendable frame (the
// pushBatchChunk rationale, count- and byte-bounded).
const storePutChunk = 1024

// Put implements store.Collection.
func (c *remoteColl) Put(rec store.PageRecord) error {
	return c.PutBatch([]store.PageRecord{rec})
}

// PutBatch implements store.Collection: each record is encoded once, in
// the store's value encoding, and the server appends those bytes as
// they arrive. A chunk grows until the count cap or the byte budget,
// measured on the encoded values; a single over-budget record still
// travels alone.
func (c *remoteColl) PutBatch(recs []store.PageRecord) error {
	for _, rec := range recs {
		if rec.URL == "" {
			return errors.New("store: empty URL")
		}
	}
	e, pairs, val := getEnc(), getEnc(), getEnc()
	defer func() { putEnc(e); putEnc(pairs); putEnc(val) }()
	n, prev := 0, ""
	send := func() error {
		e.b = e.b[:0]
		e.fix64(c.rs.nextReq()).str(c.name).u32(uint32(n))
		e.b = append(e.b, pairs.b...)
		pairs.b, n, prev = pairs.b[:0], 0, ""
		_, err := c.rs.call(c.sc, opStorePutValues, e.b)
		return err
	}
	for i := range recs {
		val.b = store.AppendValue(val.b[:0], &recs[i])
		if n == storePutChunk || n > 0 && len(pairs.b)+len(recs[i].URL)+len(val.b) > storeChunkBytes {
			if err := send(); err != nil {
				return err
			}
		}
		appendPair(pairs, prev, recs[i].URL, val.b)
		n, prev = n+1, recs[i].URL
	}
	if n == 0 {
		return nil
	}
	return send()
}

// Get implements store.Collection.
func (c *remoteColl) Get(url string) (store.PageRecord, bool, error) {
	var e enc
	e.str(c.name).str(url)
	resp, err := c.rs.call(c.sc, opStoreGetValue, e.b)
	if err != nil {
		return store.PageRecord{}, false, err
	}
	// The reply body is this call's own (readFrame reads each into a
	// fresh buffer), so the record may alias it.
	d := newDec(resp)
	n := d.u32()
	got, val := url, []byte(nil)
	if n == 1 {
		got, val = d.pair(url)
	}
	if d.err == nil && (n > 1 || got != url) {
		d.err = fmt.Errorf("%d records for %s", n, url)
	}
	if err := c.rs.check(c.sc, opStoreGetValue, d); err != nil {
		return store.PageRecord{}, false, err
	}
	if n == 0 {
		return store.PageRecord{}, false, nil
	}
	rec, err := store.DecodeValue(url, val)
	if err != nil {
		return store.PageRecord{}, false, c.rs.fail(fmt.Errorf("cluster: get %s: %w", url, err))
	}
	return rec, true, nil
}

// Delete implements store.Collection.
func (c *remoteColl) Delete(url string) error {
	var e enc
	e.fix64(c.rs.nextReq()).str(c.name).str(url)
	_, err := c.rs.call(c.sc, opStoreDelete, e.b)
	return err
}

// Len implements store.Collection; transport failures are recorded in
// Err and read as empty.
func (c *remoteColl) Len() int {
	var e enc
	e.str(c.name)
	resp, err := c.rs.call(c.sc, opStoreLen, e.b)
	if err != nil {
		return 0
	}
	d := newDec(resp)
	n := d.u32()
	if c.rs.check(c.sc, opStoreLen, d) != nil {
		return 0
	}
	return int(n)
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
		resp, err := c.rs.call(c.sc, opStoreURLs, e.b)
		if err != nil {
			return nil
		}
		d := newDec(resp)
		chunk := decodeStrings(d, after)
		done := d.bool()
		if c.rs.check(c.sc, opStoreURLs, d) != nil {
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
		resp, err := c.rs.call(c.sc, opStoreScanValues, e.b)
		if err != nil {
			return err
		}
		// A fresh body per exchange, as in Get: records alias it.
		d := newDec(resp)
		n := int(d.u32())
		for i := 0; i < n; i++ {
			url, val := d.pair(after)
			if err := c.rs.check(c.sc, opStoreScanValues, d); err != nil {
				return err
			}
			rec, err := store.DecodeValue(url, val)
			if err != nil {
				return c.rs.fail(fmt.Errorf("cluster: scan %s: %w", url, err))
			}
			if !fn(rec) {
				return nil
			}
			after = url
		}
		done := d.bool()
		if err := c.rs.check(c.sc, opStoreScanValues, d); err != nil {
			return err
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
	_, err := c.rs.call(c.sc, opStoreDrop, e.b)
	return err
}
