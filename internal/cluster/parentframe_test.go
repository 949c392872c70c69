package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"os"
	"strings"
	"testing"
)

// Earlier builds deflated frame bodies; this one writes every body raw
// and refuses the compressed form as another build's (errProtoVersion).
// The helpers below produce that form byte for byte, so the refusal
// keeps being exercised: by the WAL, snapshot and server refusal tests,
// the foreign-build tables and the frame fuzzers.

// parentCompressMin is the body size from which earlier builds tried
// deflate; a body deflate could not shrink still went raw.
const parentCompressMin = 4 << 10

// parentDeflate encodes body as a compressed frame body: its length as a
// uvarint, then a BestSpeed deflate stream.
func parentDeflate(body []byte) []byte {
	out := bytes.NewBuffer(binary.AppendUvarint(nil, uint64(len(body))))
	fw, _ := flate.NewWriter(out, flate.BestSpeed)
	fw.Write(body)
	fw.Close()
	return out.Bytes()
}

// parentFrame is the frame an earlier build wrote for a compressed body.
func parentFrame(kind byte, body []byte) []byte {
	return rawFrame(append([]byte{ProtoVersion, kind, flagCompressed}, parentDeflate(body)...))
}

// compressedFrames counts the frames in a WAL segment or snapshot file
// whose flags byte has flagCompressed set.
func compressedFrames(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for off := 0; off+8 <= len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		if off+8+n > len(raw) {
			break
		}
		if n >= frameHdr && raw[off+8+2]&flagCompressed != 0 {
			count++
		}
		off += 8 + n
	}
	return count
}

// namesCompressed reports whether a refusal names the compressed flag.
func namesCompressed(msg string) bool {
	return strings.Contains(msg, "flagCompressed")
}
