// Package cluster gives the sharded frontier and the collection a
// serialization boundary, so both can live on other machines: a compact
// length-prefixed, CRC-framed wire protocol, a ShardServer that hosts a
// set of in-process shards behind any net.Listener, a RemoteShards
// client that implements frontier.ShardSet over one or more servers,
// and their store counterparts (StoreServer, RemoteStore) — so
// core.Crawler and cmd/webcrawl run unchanged whether their shards and
// pages are local or distributed (the paper's Figure 12 anticipates
// exactly this: "multiple CrawlModules may run in parallel").
//
// Distributed pops stay globally deterministic: each engine round is
// one opRound exchange per server, which applies the round's pops,
// drops and reschedules and returns an exact ordered prefix of that
// server's queue. The client pops from the merge of those prefixes with
// the in-process comparator, and only while the head orders at or
// before the merge's exactness bound — every entry no server returned
// orders after it — refreshing the prefixes before it pops past it. A
// simulated crawl through RemoteShards is therefore bit-identical to
// the same crawl with local shards.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"sync"
)

// ProtoVersion is the one wire and log format this build speaks: every
// frame written — on a connection, in a WAL, in a snapshot — carries
// it, and readFrame rejects a frame carrying anything else, or carrying
// it with a compressed body, with errProtoVersion. There is no
// negotiation and no older decoder; the byte exists so that a peer or a
// file of another build is refused by name instead of being misparsed.
const ProtoVersion = 6

// maxFrame bounds a frame payload; anything larger is treated as a
// corrupt or hostile stream.
const maxFrame = 64 << 20

// Frame layout (little endian):
//
//	payloadLen uint32 | crc32(payload) uint32 | payload
//	payload := version uint8 | kind uint8 | flags uint8 | body
//
// For requests, kind is the opcode; for responses it is a status
// (statusOK with an op-specific body, or statusError with a message).
// Flags are 0: every body travels raw. Bit 0 (flagCompressed) marks
// the deflated body of an earlier build, which is refused as another
// build's frame (errProtoVersion); any other bit set is corruption.
const (
	// retiredHello carried a politeness gap and a clear-claims flag,
	// session state a shard server no longer keeps; opShardHello
	// replaced it. Its number, like the per-entry ops' below, is never
	// reused: a peer of an older build that sends it is answered
	// "unknown opcode" with its name.
	retiredHello byte = iota + 1
	// The per-entry frontier ops (push, pop, claim, peek, release and
	// their kin) are retired: crawls speak only opRound. Their numbers
	// are never reused: a peer of an older build that sends one is
	// answered "unknown opcode" with the op's name, and a WAL holding
	// one is refused by name (replayWALLocked).
	retiredPush
	retiredPopDue
	retiredClaimDue
	retiredHeadDue
	retiredPopDueMatch
	retiredRelease
	retiredRemove
	retiredContains
	opLen
	opURLs
	retiredPeek
	retiredNextEvent
	retiredStats
	opReset
	retiredPushBatch
	// opRound applies one crawl-engine dispatch round — pops, removes,
	// pushes — and returns the server's next pop candidates, all in a
	// single round trip (frontier.Sharded.ApplyRound on the wire).
	opRound
	// opShardExport extracts and returns one bounded chunk of the queued
	// entries whose site falls in the requested ring partitions, plus a
	// capped tail of the server's request-dedup cache — the source half
	// of a live shard migration. opShardImport installs exported entries
	// and dedup pairs on the new owner. Both are mutating (WAL-logged,
	// request-ID memoized), so a migration survives server restarts and
	// client retries like any other frontier mutation.
	opShardExport
	opShardImport
	// opShardHello is the shard handshake: an empty request, answered
	// with the server's shard count, which the client pins across
	// reconnects (checkShardHello).
	opShardHello
)

// The repository-store op family, served by StoreServer
// (the storerd daemon): store.Collection over the wire, with named
// collections so one server hosts a crawler's whole collection pair
// (shadow generations included). Numbered from 0x20 to leave the
// frontier family room to grow.
const (
	opStoreHello byte = 0x20 + iota
	// retiredStorePutBatch, retiredStoreGet and retiredStoreScan carried
	// records in a wire codec of their own. Their numbers are never
	// reused: a peer of an older build that sends one is answered
	// "unknown opcode" with the op's name.
	retiredStorePutBatch
	retiredStoreGet
	opStoreDelete
	opStoreLen
	opStoreURLs
	retiredStoreScan
	// opStoreDrop closes a named collection and removes its backing
	// data — how a retired shadow generation is reclaimed.
	opStoreDrop
	// opStoreReset drops every collection: sequential experiments over
	// one store server each start from empty.
	opStoreReset
	// opStoreList returns the collection names on the server, open or
	// on disk — how a mounting crawler finds (and reclaims) shadow
	// generations a crashed predecessor left behind.
	opStoreList
	// opStorePutValues, opStoreGetValue and opStoreScanValues carry
	// records as (URL, value) pairs: the URL front-coded against the
	// previous pair's (or the request's cursor), then the record in the
	// store's own value encoding (store.AppendValue), length-prefixed.
	// The server hands the bytes to its backend and back without
	// decoding them; the client that wants a PageRecord decodes once.
	opStorePutValues
	opStoreGetValue
	opStoreScanValues
)

// storeHelloMagic is opStoreHello's response body: it proves the peer
// is a store server, so a -store-server flag pointed at a shardd (or
// vice versa) fails loudly at connect instead of corrupting a crawl.
const storeHelloMagic = 0x53544F52 // "STOR"

// storeMutatingOp reports whether a store op changes collection state.
// Mutating store ops carry a leading client-generated request ID and
// are memoized by the store server, mirroring mutatingOp for the
// frontier family (they are deliberately separate predicates: the
// frontier WAL replays only frontier mutations).
func storeMutatingOp(op byte) bool {
	switch op {
	case opStorePutValues, opStoreDelete, opStoreDrop, opStoreReset:
		return true
	}
	return false
}

// mutatingOp reports whether op changes frontier state. Mutating ops
// carry a leading client-generated request ID (a fixed 8-byte field,
// see enc.fix64): the server logs them to its WAL (when enabled) and
// memoizes their responses in a bounded cache keyed by that ID, so a
// client retrying after a broken connection gets the original response
// instead of a second application — exactly-once semantics over an
// at-least-once transport. Read-only ops carry no ID and are never
// logged.
func mutatingOp(op byte) bool {
	switch op {
	case opReset, opRound, opShardExport, opShardImport:
		return true
	}
	return false
}

const (
	statusOK byte = iota
	statusError
)

var (
	errBadFrame = errors.New("cluster: corrupt frame")
	errShort    = errors.New("cluster: truncated body")
	// errProtoVersion marks an intact (length- and CRC-valid) frame of
	// another build: another protocol version, or a compressed body. It
	// is kept apart from errBadFrame because the two call for opposite
	// reactions: a corrupt WAL tail is swept away and a broken connection
	// redialed, but another build's frames must be left alone and
	// reported.
	errProtoVersion = errors.New("cluster: unsupported protocol version")
)

// frameBufPool recycles writeFrame's assembly buffers: the hot paths
// (engine apply rounds, store writes, WAL appends) write a frame per
// operation, and the buffer never escapes the write call. Oversized
// buffers (a compaction snapshot chunk, a huge round) are not
// returned, so one large frame cannot pin maxFrame-sized memory behind
// the pool while typical frames are a few hundred bytes.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// frameBufPoolMax caps the capacity of buffers returned to the pool.
const frameBufPoolMax = 64 << 10

// flagCompressed marks a deflate-compressed frame body, which earlier
// builds wrote in WAL segments and snapshots and sent as peers.
// This build writes bodies raw, since deflating them cost more CPU
// than the loopback bytes it saved, and it has no inflater: a frame
// carrying the flag is refused as another build's, by name.
const flagCompressed = 0x01

// frameHdr is the payload's fixed prefix: version, kind, flags.
const frameHdr = 3

// writeFrame assembles and writes one frame as a single Write call, so
// synchronous transports (net.Pipe) cannot interleave partial frames.
// It returns the bytes written to w: the body plus the 11-byte frame
// header.
func writeFrame(w io.Writer, kind byte, body []byte) (int, error) {
	payload := len(body) + frameHdr
	if payload > maxFrame {
		return 0, fmt.Errorf("cluster: frame too large (%d bytes)", payload)
	}
	bp := frameBufPool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < 8+payload {
		buf = make([]byte, 8+payload)
	} else {
		buf = buf[:8+payload]
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payload))
	buf[8] = ProtoVersion
	buf[9] = kind
	buf[10] = 0
	copy(buf[8+frameHdr:], body)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	n, err := w.Write(buf)
	if cap(buf) <= frameBufPoolMax {
		*bp = buf
		frameBufPool.Put(bp)
	}
	return n, err
}

// readFrame reads one frame, verifying length, CRC, version and flags.
// wire is the bytes consumed from r: len(body) plus the 11-byte header.
// A frame that is intact but of another version, or of this version
// with a compressed body, fails with an error that Is errProtoVersion
// and names both versions (and the flag); the frame has been consumed
// whole, so the stream stays aligned for a reply. The body is the
// caller's to keep.
func readFrame(r io.Reader) (kind byte, body []byte, wire int, err error) {
	var fr frameReader
	return fr.next(r)
}

// frameReader reads frames into buffers it reuses for the next frame:
// a server connection reads every request through one, so a steady
// stream of frames allocates nothing per frame. The body next returns
// aliases those buffers and is valid only until the following call;
// that is safe for the handlers because every decoder copies what it
// keeps (dec.str, dec.strDelta and dec.bytes all copy), and the one
// view, a put's record values (dec.bytesView), is consumed inside
// handle: store.Disk copies them into its log buffer, and store.Mem
// decodes each from a copy.
type frameReader struct {
	hdr     [8]byte
	payload []byte // the last frame's payload, as read
}

// frameReaderKeep caps the buffer a frameReader carries from one frame
// to the next: a rare large frame (a snapshot-sized round, a big
// page) must not pin its size per connection.
const frameReaderKeep = 1 << 20

// release drops a buffer grown past frameReaderKeep. Call it once the
// body of the last frame is no longer used.
func (fr *frameReader) release() {
	if cap(fr.payload) > frameReaderKeep {
		fr.payload = nil
	}
}

// readChunk is the most a frame's payload allocates before its bytes
// arrive. A longer payload grows by doubling as it is read, so a length
// prefix that lies — a hostile peer, a corrupt log tail — costs what
// was actually sent, not the up-to-maxFrame it declared.
const readChunk = 64 << 10

// readPayload reads exactly n bytes into buf's storage, growing it as
// the bytes arrive. A stream that ends partway fails with
// io.ErrUnexpectedEOF, one that ends before the first byte with io.EOF.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*cap(buf), readChunk)))
			copy(grown, buf)
			buf = grown
		}
		end := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// next reads one frame as readFrame does, into fr's buffers.
func (fr *frameReader) next(r io.Reader) (kind byte, body []byte, wire int, err error) {
	hdr := fr.hdr[:] // a field, so reading into it does not allocate per frame
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < 2 || n > maxFrame { // every version's payload opens version, kind
		return 0, nil, 0, errBadFrame
	}
	payload, err := readPayload(r, fr.payload, int(n))
	fr.payload = payload
	if err != nil {
		return 0, nil, 0, fmt.Errorf("cluster: truncated frame: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, nil, 0, errBadFrame
	}
	if ver := payload[0]; ver != ProtoVersion {
		return 0, nil, 0, fmt.Errorf("%w %d (this build speaks only version %d)", errProtoVersion, ver, ProtoVersion)
	}
	if n < frameHdr {
		return 0, nil, 0, errBadFrame
	}
	switch payload[2] {
	case 0:
	case flagCompressed:
		return 0, nil, 0, fmt.Errorf("%w %d with a compressed body (flagCompressed, 0x01), which this build cannot read "+
			"(it speaks only raw frames of version %d)", errProtoVersion, ProtoVersion, ProtoVersion)
	default:
		return 0, nil, 0, errBadFrame
	}
	return payload[1], payload[frameHdr:], 8 + int(n), nil
}

// enc is an append-only body encoder; the zero value is ready to use.
// Counts, lengths and other small integers (u32, u64) are uvarints;
// f64 and fix64 are fixed 8-byte little-endian.
type enc struct {
	b []byte
}

// encPool recycles the encoders of the crawl's two per-round request
// bodies (opRound, opStorePutValues), which are tens of kilobytes grown
// by append-doubling and dead as soon as writeFrame has copied them
// into a frame. Oversized buffers are dropped, as in frameBufPool.
var encPool = sync.Pool{New: func() any { return new(enc) }}

const encPoolMax = 1 << 20

// getEnc returns an empty pooled encoder. The caller hands it back with
// putEnc once nothing reads its bytes: after roundTrip returns, since
// every retry resends the same body.
func getEnc() *enc {
	e := encPool.Get().(*enc)
	e.b = e.b[:0]
	return e
}

func putEnc(e *enc) {
	if cap(e.b) <= encPoolMax {
		encPool.Put(e)
	}
}

func (e *enc) u32(v uint32) *enc { return e.u64(uint64(v)) }

func (e *enc) u64(v uint64) *enc {
	e.b = binary.AppendUvarint(e.b, v)
	return e
}

// fix64 writes a fixed 8-byte little-endian value. Request IDs, boot
// IDs and page checksums are uniformly random 64-bit values, so a
// uvarint would *grow* them (9.2 bytes on average).
func (e *enc) fix64(v uint64) *enc {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.b = append(e.b, b[:]...)
	return e
}

func (e *enc) u8(v byte) *enc {
	e.b = append(e.b, v)
	return e
}

func (e *enc) f64(v float64) *enc {
	return e.fix64(math.Float64bits(v))
}

func (e *enc) bool(v bool) *enc {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
	return e
}

func (e *enc) str(s string) *enc {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
	return e
}

// strDelta appends s front-coded against prev: the length of the shared
// prefix, the suffix length, then the suffix bytes. URL lists travel
// sorted (per shard, per scan chunk), so consecutive entries share long
// prefixes and the shared part costs one or two bytes instead of being
// resent.
func (e *enc) strDelta(prev, s string) *enc {
	shared := commonPrefixLen(prev, s)
	e.u64(uint64(shared)).u64(uint64(len(s) - shared))
	e.b = append(e.b, s[shared:]...)
	return e
}

// bytes appends a length-prefixed byte slice without an intermediate
// string copy (page bodies ride the hot put/get/scan paths).
func (e *enc) bytes(b []byte) *enc {
	e.u32(uint32(len(b)))
	e.b = append(e.b, b...)
	return e
}

func commonPrefixLen(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// dec is a cursor-based body decoder; the first malformed field poisons
// it and every later read returns the zero value.
type dec struct {
	b   []byte
	off int
	err error
}

func newDec(body []byte) *dec { return &dec{b: body} }

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = errShort
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = errShort
		return 0
	}
	d.off += n
	return v
}

func (d *dec) u32() uint32 {
	v := d.u64()
	if v > math.MaxUint32 {
		d.err = errBadFrame
		return 0
	}
	return uint32(v)
}

// fix64 reads a fixed 8-byte value (enc.fix64's inverse).
func (d *dec) fix64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) f64() float64 {
	return math.Float64frombits(d.fix64())
}

func (d *dec) bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

func (d *dec) str() string {
	n := d.u32()
	if d.err != nil || int(n) > len(d.b)-d.off {
		d.err = errShort
		return ""
	}
	return string(d.take(int(n)))
}

// strDelta decodes a front-coded string against prev (enc.strDelta's
// inverse). A prefix length exceeding len(prev) poisons the decoder: it
// can only come from a corrupt or hostile frame.
func (d *dec) strDelta(prev string) string {
	shared := d.u64()
	if d.err != nil || shared > uint64(len(prev)) {
		d.err = errBadFrame
		return ""
	}
	n := d.u64()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.err = errShort
		return ""
	}
	suffix := d.take(int(n))
	if shared == 0 {
		return string(suffix)
	}
	if len(suffix) == 0 {
		return prev[:shared] // a prefix of prev: nothing to copy
	}
	var sb strings.Builder
	sb.Grow(int(shared) + len(suffix))
	sb.WriteString(prev[:shared])
	sb.Write(suffix)
	return sb.String()
}

// bytesView decodes a length-prefixed byte slice as a view into the
// body, without copying: for bytes consumed before the body's buffer is
// reused (a put's record values on the server), or a body nobody reuses
// (a reply on the client, read into a fresh buffer per exchange).
func (d *dec) bytesView() []byte {
	n := d.u32()
	if d.err != nil || int(n) > len(d.b)-d.off {
		d.err = errShort
		return nil
	}
	return d.take(int(n))
}

// bytes decodes a length-prefixed byte slice with exactly one copy
// (never retaining the frame buffer); empty decodes as nil.
func (d *dec) bytes() []byte {
	n := d.u32()
	if d.err != nil || int(n) > len(d.b)-d.off {
		d.err = errShort
		return nil
	}
	b := d.take(int(n))
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// finish reports a decoding error, if any.
func (d *dec) finish() error { return d.err }

// encodeStrings appends a counted string list, front-coding each
// element against its predecessor. prev seeds the first element's
// front-coding — both sides must agree on it (the empty string, or a
// resume cursor both already know).
func encodeStrings(e *enc, prev string, list []string) {
	e.u32(uint32(len(list)))
	for _, s := range list {
		e.strDelta(prev, s)
		prev = s
	}
}

// decodeStrings decodes a counted string list (encodeStrings's
// inverse). An empty list decodes as nil, so record link lists
// round-trip to the same value the local stores produce.
func decodeStrings(d *dec, prev string) []string {
	n := int(d.u32())
	if n == 0 {
		return nil
	}
	out := make([]string, 0, min(n, 1<<16))
	for i := 0; i < n && d.finish() == nil; i++ {
		s := d.strDelta(prev)
		if d.finish() == nil {
			out = append(out, s)
			prev = s
		}
	}
	return out
}
