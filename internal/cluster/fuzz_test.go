package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"webevolve/internal/frontier"
	"webevolve/internal/store"
)

// validFrame builds a well-formed frame for seeding the fuzzers.
func validFrame(t testing.TB, kind byte, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, kind, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// prefixLieBody builds a body whose first list's single front-coded
// URL claims a 64-byte shared prefix against an empty previous one: a
// round whose pop lies, or a push batch of an earlier build whose
// entry does.
func prefixLieBody(reqID uint64) []byte {
	var e enc
	e.fix64(reqID)
	e.u64(1)   // one entry
	e.u64(64)  // shared prefix longer than prev ("")
	e.u64(0)   // empty suffix
	e.fix64(0) // due
	e.fix64(0) // priority
	return e.b
}

// rawFrame assembles a frame with a correct length prefix and CRC but
// arbitrary payload bytes — for corpora whose corruption lives *below*
// the checksum (bad flags, lying compression headers, another build's
// version tag), which a CRC-valid frame must still reject.
func rawFrame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// parentHelloBody is the retired hello's body as builds before
// opShardHello sent it: apply a gap (bool), the gap (f64: 0.5), clear
// claims (bool).
var parentHelloBody = []byte{1, 0, 0, 0, 0, 0, 0, 0xE0, 0x3F, 1}

// seedBodies are well-formed request bodies by opcode, plus bodies
// whose malformation only the decode layer can catch. The retired ops
// keep the bodies earlier builds sent: they pin the refusal.
func seedBodies() map[byte][][]byte {
	var push, batch, lying, pop enc
	push.fix64(9).str("http://site001.com/a").f64(1).f64(2)
	batch.fix64(10)
	encodeEntries(&batch, []frontier.Entry{
		{URL: "http://site001.com/a", Due: 1},
		{URL: "http://site002.com/b", Due: 2, Priority: 1},
	})
	// Batch claiming 4 billion entries with a 30-byte body.
	lying.fix64(11).u32(0xFFFFFFFF).str("http://site001.com/a")
	pop.fix64(12).f64(3)
	return map[byte][][]byte{
		// A round with every section filled; one whose pushes claim 4
		// billion entries in a 30-byte body; a truncated uvarint count
		// (0x80 promises a continuation byte that never comes); a
		// front-coded pop whose shared prefix exceeds the previous URL.
		opRound: {
			roundBody(14, []string{"http://site001.com/a"}, []string{"http://site002.com/b"},
				[]frontier.Entry{{URL: "http://site001.com/a", Due: 1}, {URL: "http://site003.com/c", Due: 2, Priority: 1}}, 4),
			append(append(binary.LittleEndian.AppendUint64(nil, 15), 0, 0), lying.b[8:]...),
			{1, 2, 3, 4, 5, 6, 7, 8, 0x80},
			prefixLieBody(13),
		},
		retiredPush:      {push.b},
		retiredPushBatch: {batch.b, lying.b, {1, 2, 3, 4, 5, 6, 7, 8, 0x80}, prefixLieBody(13)},
		retiredPopDue:    {pop.b},
		retiredClaimDue:  {pop.b},
		// The second: a fixed-width body as builds before version 6
		// encoded it.
		retiredRelease: {{1, 2, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F}},
		retiredHello:   {{1}, parentHelloBody},
		opShardHello:   {nil},
		retiredRemove:  {{}},
		opLen:          {nil},
		0xEE:           {[]byte("unknown op")},
	}
}

// corruptFrames are byte streams readFrame must refuse: damaged above
// the checksum (truncated, bit-flipped, oversized) and, CRC-valid,
// below it (flags, and compressed bodies with lying headers, which are
// refused as another build's before their headers are read).
func corruptFrames(t testing.TB) map[string][]byte {
	whole := validFrame(t, opRound, seedBodies()[opRound][0])
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0xff
	huge := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(huge[0:4], maxFrame+1)
	// A compressed body declaring an inflated size past maxFrame, and one
	// whose stream inflates to less than it declares.
	lying := binary.AppendUvarint([]byte{ProtoVersion, opLen, flagCompressed}, maxFrame+1)
	short := append([]byte{ProtoVersion, opLen, flagCompressed}, parentDeflate([]byte("tiny"))...)
	short[3] = 0x60 // declare 96 inflated bytes; the stream holds 4
	return map[string][]byte{
		"truncated":                     whole[:len(whole)-3],
		"flipped payload byte":          flipped,
		"oversized length":              huge,
		"unknown flag bits":             rawFrame([]byte{ProtoVersion, opLen, 0xFE}),
		"compressed size past maxFrame": rawFrame(lying),
		"compressed size mismatch":      rawFrame(short),
	}
}

// FuzzDecodeFrame throws arbitrary byte streams at the frame reader
// and, when a frame decodes, at the request handler: truncated frames,
// flipped bits, oversized lengths, truncated varints, front-coding
// lies, hostile compression headers, other versions' frames and
// unknown ops must all surface as errors (or error responses), never
// as panics or hangs. A compressed frame is another build's, refused.
func FuzzDecodeFrame(f *testing.F) {
	for op, bodies := range seedBodies() {
		for _, body := range bodies {
			f.Add(validFrame(f, op, body))
		}
	}
	// A compressed frame, as earlier builds wrote a large round: refused.
	f.Add(parentFrame(opRound, walRoundBody(9, testURLs(16, 24))))
	for _, b := range corruptFrames(f) {
		f.Add(b)
	}
	// Other builds' frames, intact: the two-byte-header shapes versions
	// 2–5 wrote (a v5 hello with its want byte, a v5 body that would read
	// as a compression flag) and ours tagged one version ahead.
	f.Add(rawFrame(append([]byte{5, retiredHello}, append(parentHelloBody, ProtoVersion)...)))
	f.Add(rawFrame([]byte{2, opLen}))
	f.Add(rawFrame([]byte{5, opLen, flagCompressed}))
	f.Add(rawFrame(append([]byte{ProtoVersion + 1, opRound, 0}, seedBodies()[opRound][0]...)))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, _, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if data[8] != ProtoVersion {
			t.Fatalf("frame tagged version %d decoded", data[8])
		}
		srv := NewShardServer(frontier.NewSharded(2))
		status, resp := srv.handle(kind, body)
		if status != statusOK && status != statusError {
			t.Fatalf("handle returned status %d (resp %q)", status, resp)
		}
	})
}

// storeSeedBodies are well-formed store request bodies by opcode, plus
// a put whose second value is cut short, which the server must refuse
// whole, and a retired op.
func storeSeedBodies() map[byte][][]byte {
	a := store.PageRecord{URL: "http://site001.com/a", Checksum: 7, Links: []string{"http://site001.com/b"}, Content: []byte("<p>")}
	b := store.PageRecord{URL: "http://site001.com/b", Importance: 0.5, Links: []string{"http://site002.com/", "http://site001.com/a"}}
	va, vb := store.AppendValue(nil, &a), store.AppendValue(nil, &b)
	var put, cut, get, scan enc
	put.fix64(20).str("c").u32(2)
	appendPair(&put, "", a.URL, va)
	appendPair(&put, a.URL, b.URL, vb)
	cut.fix64(21).str("c").u32(2)
	appendPair(&cut, "", a.URL, va)
	appendPair(&cut, a.URL, b.URL, vb[:len(vb)-4])
	get.str("c").str(a.URL)
	scan.str("c").str("").u32(5)
	return map[byte][][]byte{
		opStorePutValues:     {put.b, cut.b},
		opStoreGetValue:      {get.b},
		opStoreScanValues:    {scan.b},
		retiredStorePutBatch: {put.b},
	}
}

// FuzzHandleBody drives every opcode with arbitrary bodies directly, on
// a shard server, a memory store server (which decodes every value it
// is handed) and a disk store server (which appends them verbatim): the
// decode layer's poisoning and the value check must turn any malformed
// body into an error response, not a panic.
func FuzzHandleBody(f *testing.F) {
	for _, seeds := range []map[byte][][]byte{seedBodies(), storeSeedBodies()} {
		for op, bodies := range seeds {
			for _, body := range bodies {
				f.Add(op, body)
			}
		}
	}
	disk := NewDiskStoreServer(f.TempDir())
	f.Cleanup(func() { disk.Close() })
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		for _, srv := range []interface {
			handle(op byte, body []byte) (byte, []byte)
		}{NewShardServer(frontier.NewSharded(2)), NewMemStoreServer(), disk} {
			status, resp := srv.handle(op, body)
			if status != statusOK && status != statusError {
				t.Fatalf("handle(%d) returned status %d (resp %q)", op, status, resp)
			}
		}
	})
}

// TestCorruptionTable pins the corruption cases the fuzzers seed, so
// the contract is enforced even in runs that skip fuzzing.
func TestCorruptionTable(t *testing.T) {
	for name, b := range corruptFrames(t) {
		if _, _, _, err := readFrame(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	whole := validFrame(t, opRound, seedBodies()[opRound][0])
	for cut := 0; cut < len(whole); cut++ {
		if _, _, _, err := readFrame(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// The version byte admits exactly ProtoVersion. Any other value on an
	// intact frame — in the two-byte-header shape builds before version 6
	// wrote, or in ours — is refused with errProtoVersion naming both
	// versions: never decoded, never mistaken for corruption.
	for v := 0; v < 256; v++ {
		for _, payload := range [][]byte{{byte(v), opLen}, {byte(v), opRound, 0, 1, 2}, {byte(v), opLen, 0xFE}} {
			_, _, _, err := readFrame(bytes.NewReader(rawFrame(payload)))
			if foreign := errors.Is(err, errProtoVersion); foreign != (v != ProtoVersion) {
				t.Fatalf("version %d payload %x: err = %v", v, payload, err)
			} else if foreign && !namesVersions(err.Error(), byte(v)) {
				t.Fatalf("version error %q does not name both versions", err)
			}
		}
	}
	srv := NewShardServer(frontier.NewSharded(2))
	for name, req := range map[string]struct {
		op   byte
		body []byte
	}{
		"unknown op":                     {0xEE, nil},
		"mutating op without request id": {opRound, []byte{1, 2}},
		"front-coding prefix lie":        {opRound, prefixLieBody(13)},
	} {
		if status, _ := srv.handle(req.op, req.body); status != statusError {
			t.Errorf("%s: status %d, want error", name, status)
		}
	}
	if n := srv.Shards().Len(); n != 0 {
		t.Fatalf("prefix lie half-applied: %d entries", n)
	}
}
