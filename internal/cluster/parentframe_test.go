package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
)

// Earlier builds deflated frame bodies; this one writes every body raw
// and only reads the compressed form. The helpers below produce that
// form byte for byte, so the read path keeps being exercised: by the
// WAL and snapshot replay tests, the frame fuzzers, and a client
// connection that speaks as an earlier build's did.

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

// parentConn rewrites each frame the client writes as an earlier build
// would have sent it: a body of at least parentCompressMin that deflate
// shrinks goes compressed. Every frame arrives in one Write call
// (writeFrame's contract). deflated counts the frames rewritten.
type parentConn struct {
	net.Conn
	deflated *atomic.Int64
}

func (c parentConn) Write(p []byte) (int, error) {
	n := int(binary.LittleEndian.Uint32(p[0:4]))
	if len(p) != 8+n || n < frameHdr || p[10] != 0 {
		return 0, errors.New("parentConn: a write that is not one raw frame")
	}
	kind, body := p[9], p[8+frameHdr:]
	if len(body) >= parentCompressMin {
		if comp := parentDeflate(body); len(comp) < len(body) {
			c.deflated.Add(1)
			frame := rawFrame(append([]byte{ProtoVersion, kind, flagCompressed}, comp...))
			if _, err := c.Conn.Write(frame); err != nil {
				return 0, err
			}
			return len(p), nil
		}
	}
	return c.Conn.Write(p)
}

// parentDialer wraps d's connections in parentConn.
func parentDialer(d Dialer, deflated *atomic.Int64) Dialer {
	return func() (net.Conn, error) {
		conn, err := d()
		if err != nil {
			return nil, err
		}
		return parentConn{conn, deflated}, nil
	}
}
