package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"webevolve/internal/store"
)

// StoreServer hosts named store.Collection instances behind a listener,
// serving the opStore* family of the wire protocol: the repository-side
// counterpart of ShardServer, and the storerd daemon's engine. Named
// collections let one server carry a crawler's whole collection pair —
// webcrawl's persistent "pages" collection, or the engine's rotating
// shadow generations, which a client drops (opStoreDrop) once retired.
//
// Mutating ops (PutBatch, Delete, Drop, Reset) carry client request IDs
// and their responses are memoized, so a client retrying across a
// broken connection gets exactly-once application — the same contract
// as the frontier ops. There is no WAL: the disk-backed collections are
// their own durable log (store.Disk flushes every acknowledged batch),
// and the dedup window is only a nicety here since every store op is
// idempotent.
//
// One crawl engine owns a store server's collections at a time, like a
// frontier cluster: concurrent writers would interleave batches and
// shadow generations unpredictably.
type StoreServer struct {
	connCore

	// open constructs (or reopens) the backing collection for a name;
	// drop removes a closed collection's backing data (nil: nothing to
	// remove, e.g. memory backends); list enumerates the names with
	// backing data on disk, open or not (nil: nothing persists), so
	// Reset can sweep collections left by a previous server process.
	open func(name string) (StoreBackend, error)
	drop func(name string) error
	list func() ([]string, error)

	// boot identifies this server instance in the hello response;
	// durable reports whether collections survive a restart. Together
	// they let a client distinguish "reconnected to the same state"
	// from "reconnected to a restarted server whose memory-backed
	// collections are gone" (checkStoreHello).
	boot    uint64
	durable bool

	collMu sync.Mutex
	colls  map[string]StoreBackend

	// reqMu serializes mutating requests with their dedup bookkeeping,
	// mirroring ShardServer.walMu. Read-only ops bypass it and rely on
	// the collections' own locking.
	reqMu sync.Mutex
	dedup *respCache
	vals  []store.Value // a put's (URL, value) pairs; reused under reqMu
}

// StoreBackend is a collection a StoreServer hosts: one that also moves
// records as encoded values (store.AppendValue's bytes), so a put's
// values reach it, and a read's value the client, undecoded. PutValues
// checks every value before applying any and keeps none of their bytes;
// GetValue's bytes are the caller's; ScanValuesFrom's val is valid only
// until fn returns. store.Mem and store.Disk are both StoreBackends.
type StoreBackend interface {
	store.Collection
	// URLsFrom visits the URLs strictly after after, in order, until fn
	// returns false.
	URLsFrom(after string, fn func(string) bool)
	PutValues(vals []store.Value) error
	GetValue(url string) (val []byte, ok bool, err error)
	ScanValuesFrom(after string, fn func(url string, val []byte) bool) error
}

// NewStoreServer builds a store server over a collection factory. Most
// callers want NewDiskStoreServer or NewMemStoreServer.
func NewStoreServer(open func(name string) (StoreBackend, error), drop func(name string) error, list func() ([]string, error)) *StoreServer {
	s := &StoreServer{
		open:  open,
		drop:  drop,
		list:  list,
		boot:  randomReqBase(),
		colls: make(map[string]StoreBackend),
		dedup: newRespCache(respCacheSize),
	}
	s.connCore.handle = s.handle
	s.connCore.conns = make(map[net.Conn]struct{})
	return s
}

// NewDiskStoreServer serves disk-backed collections, one subdirectory
// of dir per collection name; they survive server restarts.
func NewDiskStoreServer(dir string) *StoreServer {
	s := newDiskStoreServer(dir)
	s.durable = true
	return s
}

func newDiskStoreServer(dir string) *StoreServer {
	return NewStoreServer(
		func(name string) (StoreBackend, error) {
			return store.OpenDisk(filepath.Join(dir, name))
		},
		func(name string) error {
			return os.RemoveAll(filepath.Join(dir, name))
		},
		func() ([]string, error) {
			entries, err := os.ReadDir(dir)
			if os.IsNotExist(err) {
				return nil, nil
			}
			if err != nil {
				return nil, err
			}
			var names []string
			for _, e := range entries {
				if e.IsDir() && validCollName(e.Name()) {
					names = append(names, e.Name())
				}
			}
			return names, nil
		},
	)
}

// NewMemStoreServer serves in-memory collections (simulations, tests).
func NewMemStoreServer() *StoreServer {
	return NewStoreServer(
		func(string) (StoreBackend, error) { return store.NewMem(), nil },
		nil,
		nil,
	)
}

// Close stops serving and closes every open collection (flushing
// disk-backed ones).
func (s *StoreServer) Close() error {
	err := s.connCore.Close()
	if cerr := s.CloseCollections(); err == nil {
		err = cerr
	}
	return err
}

// CloseCollections closes every open collection without touching the
// listener (the daemon's shutdown flush).
func (s *StoreServer) CloseCollections() error {
	s.collMu.Lock()
	defer s.collMu.Unlock()
	var err error
	for name, c := range s.colls {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
		delete(s.colls, name)
	}
	return err
}

// Collections returns the names of the currently open collections,
// sorted (observability; the storerd stats ticker).
func (s *StoreServer) Collections() []string {
	s.collMu.Lock()
	defer s.collMu.Unlock()
	out := make([]string, 0, len(s.colls))
	for name := range s.colls {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// collectionNames returns every collection the server knows about —
// open ones plus any with backing data on disk — sorted.
func (s *StoreServer) collectionNames() ([]string, error) {
	set := make(map[string]struct{})
	s.collMu.Lock()
	for name := range s.colls {
		set[name] = struct{}{}
	}
	s.collMu.Unlock()
	if s.list != nil {
		onDisk, err := s.list()
		if err != nil {
			return nil, err
		}
		for _, n := range onDisk {
			set[n] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// validCollName keeps collection names safe as directory components:
// the disk backend maps a name straight to a subdirectory.
func validCollName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Collection returns the named hosted collection, opening it on first
// use — the in-process view of what the wire ops serve, so a daemon
// embedding a serving plane (storerd -serve) reads the same backing
// store its clients write, without a loopback hop.
func (s *StoreServer) Collection(name string) (store.Collection, error) {
	return s.coll(name)
}

// coll returns the named collection, opening it on first use.
func (s *StoreServer) coll(name string) (StoreBackend, error) {
	if !validCollName(name) {
		return nil, fmt.Errorf("bad collection name %q", name)
	}
	s.collMu.Lock()
	defer s.collMu.Unlock()
	if c, ok := s.colls[name]; ok {
		return c, nil
	}
	c, err := s.open(name)
	if err != nil {
		return nil, err
	}
	s.colls[name] = c
	return c, nil
}

// storeScanChunk caps how many records one opStoreScanValues response
// carries; the client resumes from the last URL of the previous chunk,
// so a scan of any size stays a sequence of bounded frames.
const storeScanChunk = 512

// storeURLsChunk caps the URLs one opStoreURLs response carries (same
// resume protocol, lighter elements).
const storeURLsChunk = 1 << 16

// storeChunkBytes is the soft byte budget for one store frame's
// records (a quarter of maxFrame): records carry page bodies, so
// chunking by count alone could assemble an unsendable frame. A single
// record above the budget still travels alone — only a record whose
// own encoding exceeds maxFrame is truly unsendable.
const storeChunkBytes = 16 << 20

// appendPair appends one (URL, value) pair as the store ops carry
// records: the URL front-coded against prev, the previous pair's URL
// (or the request's cursor), then the value, length-prefixed.
func appendPair(e *enc, prev, url string, val []byte) {
	e.strDelta(prev, url)
	e.bytes(val)
}

// pair decodes one (URL, value) pair; the value is a view into the
// body (dec.bytesView).
func (d *dec) pair(prev string) (url string, val []byte) {
	url = d.strDelta(prev)
	return url, d.bytesView()
}

// handle executes one request against the hosted collections.
func (s *StoreServer) handle(op byte, body []byte) (status byte, resp []byte) {
	if storeMutatingOp(op) {
		return s.handleMutating(op, body)
	}
	d := newDec(body)
	var e enc
	switch op {
	case opStoreHello:
		e.u32(storeHelloMagic).bool(s.durable).fix64(s.boot)
	case opStoreList:
		if err := d.finish(); err != nil {
			return statusError, []byte(err.Error())
		}
		names, err := s.collectionNames()
		if err != nil {
			return statusError, []byte(err.Error())
		}
		encodeStrings(&e, "", names)
	case opStoreGetValue:
		// A list of at most one pair, front-coded against the URL asked.
		name, url := d.str(), d.str()
		if err := d.finish(); err != nil {
			return statusError, []byte(err.Error())
		}
		c, err := s.coll(name)
		if err != nil {
			return statusError, []byte(err.Error())
		}
		val, ok, err := c.GetValue(url)
		if err != nil {
			return statusError, []byte(err.Error())
		}
		if !ok {
			e.u32(0)
			break
		}
		e.u32(1)
		appendPair(&e, url, url, val)
	case opStoreLen:
		name := d.str()
		if err := d.finish(); err != nil {
			return statusError, []byte(err.Error())
		}
		c, err := s.coll(name)
		if err != nil {
			return statusError, []byte(err.Error())
		}
		e.u32(uint32(c.Len()))
	case opStoreURLs:
		// Chunked like the scan: one bounded frame of sorted URLs
		// strictly after `after`, with a done flag — a URL list of any
		// size stays sendable under maxFrame.
		name, after := d.str(), d.str()
		maxURLs := int(d.u32())
		if err := d.finish(); err != nil {
			return statusError, []byte(err.Error())
		}
		if maxURLs <= 0 || maxURLs > storeURLsChunk {
			maxURLs = storeURLsChunk
		}
		c, err := s.coll(name)
		if err != nil {
			return statusError, []byte(err.Error())
		}
		chunk := make([]string, 0, min(maxURLs, 1<<12))
		chunkBytes := 0
		done := true
		collect := func(u string) bool {
			if len(chunk) == maxURLs || (len(chunk) > 0 && chunkBytes+len(u) > storeChunkBytes) {
				done = false
				return false
			}
			chunk = append(chunk, u)
			chunkBytes += 4 + len(u)
			return true
		}
		c.URLsFrom(after, collect)
		// Front-code against the resume cursor: both sides know `after`,
		// and the chunk's sorted URLs usually share its site prefix.
		encodeStrings(&e, after, chunk)
		e.bool(done)
	case opStoreScanValues:
		// One chunk of the sorted scan, resuming strictly after `after`
		// (empty = from the start): a counted list of pairs, then done,
		// set when the chunk reached the end of the collection.
		name, after := d.str(), d.str()
		maxRecs := int(d.u32())
		if err := d.finish(); err != nil {
			return statusError, []byte(err.Error())
		}
		if maxRecs <= 0 || maxRecs > storeScanChunk {
			maxRecs = storeScanChunk
		}
		c, err := s.coll(name)
		if err != nil {
			return statusError, []byte(err.Error())
		}
		var pairs enc
		n, done, prev := 0, true, after
		// O(log n + chunk) on the built-in backends, so a chunked scan of
		// N records costs O(N).
		err = c.ScanValuesFrom(after, func(url string, val []byte) bool {
			if n == maxRecs || n > 0 && len(pairs.b)+len(url)+len(val) > storeChunkBytes {
				done = false
				return false
			}
			appendPair(&pairs, prev, url, val)
			n, prev = n+1, url
			return true
		})
		if err != nil {
			return statusError, []byte(err.Error())
		}
		e.u32(uint32(n))
		e.b = append(e.b, pairs.b...)
		e.bool(done)
	default:
		return statusError, []byte(fmt.Sprintf("unknown opcode %d (%s)", op, opName(op)))
	}
	return statusOK, e.b
}

// handleMutating runs one state-mutating store request under reqMu with
// request-ID dedup, mirroring the frontier server's exactly-once retry
// contract.
func (s *StoreServer) handleMutating(op byte, body []byte) (status byte, resp []byte) {
	d := newDec(body)
	reqID := d.fix64()
	if d.finish() != nil {
		return statusError, []byte("missing request id")
	}
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if st, cached, ok := s.dedup.get(reqID); ok {
		return st, cached
	}
	status, resp = s.applyMutating(op, d)
	s.dedup.put(reqID, status, resp)
	return status, resp
}

// applyMutating applies one mutating store op whose request ID has
// already been consumed from d.
func (s *StoreServer) applyMutating(op byte, d *dec) (status byte, resp []byte) {
	var e enc
	switch op {
	case opStorePutValues:
		// The pairs go to the backend as they lie in the body, the one
		// allocation per record being its URL, which the index keeps.
		name := d.str()
		n := int(d.u32())
		prev := ""
		for i := 0; i < n && d.finish() == nil; i++ {
			url, val := d.pair(prev)
			s.vals = append(s.vals, store.Value{URL: url, Bytes: val})
			prev = url
		}
		vals := s.vals
		defer func() {
			clear(vals) // the values are views into a reused read buffer
			s.vals = vals[:0]
		}()
		if err := d.finish(); err != nil {
			return statusError, []byte(err.Error())
		}
		c, err := s.coll(name)
		if err != nil {
			return statusError, []byte(err.Error())
		}
		if err := c.PutValues(vals); err != nil {
			return statusError, []byte(err.Error())
		}
		e.u32(uint32(len(vals)))
	case opStoreDelete:
		name, url := d.str(), d.str()
		if err := d.finish(); err != nil {
			return statusError, []byte(err.Error())
		}
		c, err := s.coll(name)
		if err != nil {
			return statusError, []byte(err.Error())
		}
		if err := c.Delete(url); err != nil {
			return statusError, []byte(err.Error())
		}
	case opStoreDrop:
		name := d.str()
		if err := d.finish(); err != nil {
			return statusError, []byte(err.Error())
		}
		if !validCollName(name) {
			return statusError, []byte(fmt.Sprintf("bad collection name %q", name))
		}
		if err := s.dropColl(name); err != nil {
			return statusError, []byte(err.Error())
		}
	case opStoreReset:
		if err := d.finish(); err != nil {
			return statusError, []byte(err.Error())
		}
		if err := s.reset(); err != nil {
			return statusError, []byte(err.Error())
		}
	default:
		return statusError, []byte(fmt.Sprintf("unknown mutating opcode %d (%s)", op, opName(op)))
	}
	return statusOK, e.b
}

// dropColl closes a collection and removes its backing data. Dropping a
// collection that was never opened still removes leftover data from a
// previous server run.
func (s *StoreServer) dropColl(name string) error {
	s.collMu.Lock()
	defer s.collMu.Unlock()
	if c, ok := s.colls[name]; ok {
		delete(s.colls, name)
		if err := c.Close(); err != nil {
			return err
		}
	}
	if s.drop != nil {
		return s.drop(name)
	}
	return nil
}

// reset drops every collection, open or not: the backing directory is
// swept too (via list), so a collection left on disk by a *previous*
// server process goes as well and sequential experiments truly start
// from empty.
func (s *StoreServer) reset() error {
	s.collMu.Lock()
	defer s.collMu.Unlock()
	var err error
	names := make(map[string]struct{})
	for name, c := range s.colls {
		delete(s.colls, name)
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
		names[name] = struct{}{}
	}
	if s.list != nil {
		onDisk, lerr := s.list()
		if lerr != nil && err == nil {
			err = lerr
		}
		for _, n := range onDisk {
			names[n] = struct{}{}
		}
	}
	if s.drop != nil {
		for n := range names {
			if derr := s.drop(n); derr != nil && err == nil {
				err = derr
			}
		}
	}
	return err
}
