package cluster

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"webevolve/internal/frontier"
)

// TestStickyErrIdentifiesServerAndOp: a transport failure's sticky
// error must say which server and which op failed — "connection reset"
// alone is undebuggable on a multi-member cluster.
func TestStickyErrIdentifiesServerAndOp(t *testing.T) {
	srv := NewShardServer(frontier.NewSharded(4))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck — exits with ErrServerClosed on Close
	addr := srv.Addr().String()
	rs, err := DialTCP([]string{addr}, Options{t: transport{retries: -1}})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer rs.Close()
	rs.ApplyRound(nil, nil, []frontier.Entry{{URL: "https://a.com/x", Priority: 1}}, 0)

	// Kill the server; the next op exhausts its (zero) retries and the
	// error goes sticky.
	srv.Close()
	rs.ApplyRound(nil, nil, []frontier.Entry{{URL: "https://a.com/y", Priority: 1}}, 0)

	serr := rs.Err()
	if serr == nil {
		t.Fatal("no sticky error after ops against a dead server")
	}
	msg := serr.Error()
	if !strings.Contains(msg, addr) {
		t.Errorf("sticky error %q does not name the server address %s", msg, addr)
	}
	if !strings.Contains(msg, ": round (") {
		t.Errorf("sticky error %q does not name the failed op", msg)
	}
}

// foreignFrames are intact frames of other builds, by the version they
// carry: a version-5 hello (two-byte header, want byte), our shard
// hello tagged 7, and a round an earlier build of our version sent
// compressed.
var foreignFrames = map[byte][]byte{
	5:                rawFrame([]byte{5, retiredHello, 0, 1, ProtoVersion}),
	ProtoVersion:     parentFrame(opRound, walRoundBody(9, testURLs(16, 24))),
	ProtoVersion + 1: rawFrame([]byte{ProtoVersion + 1, opShardHello, 0}),
}

// TestServerAnswersVersionMismatch: a server that reads an intact frame
// of a version it does not speak, or a compressed one, must say so —
// one statusError frame naming the received and the supported version,
// and the flag — before hanging up. Dropping the connection silently
// leaves the peer retrying a bare EOF.
func TestServerAnswersVersionMismatch(t *testing.T) {
	shard, st := NewShardServer(frontier.NewSharded(2)), NewMemStoreServer()
	defer shard.Close()
	defer st.Close()
	for _, pipe := range []Dialer{shard.Pipe, st.Pipe} {
		for ver, frame := range foreignFrames {
			conn, err := pipe()
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			conn.Write(frame)
			status, resp, _, err := readFrame(conn)
			if err != nil || status != statusError || !namesVersions(string(resp), ver) {
				t.Errorf("v%d frame answered (%d, %q, %v), want a statusError naming both versions", ver, status, resp, err)
			}
			if ver == ProtoVersion && !namesCompressed(string(resp)) {
				t.Errorf("compressed frame answered %q, want the flag named", resp)
			}
			if _, _, _, err := readFrame(conn); err != io.EOF {
				t.Errorf("connection left open after the answer: %v", err)
			}
			conn.Close()
		}
	}
}

// foreignServer swallows each connection's first frame, answers it with
// frame and hangs up — how a server of another build looks from here
// (it tags its refusal with its own version).
func foreignServer(frame []byte) Dialer {
	return func() (net.Conn, error) {
		cli, srv := net.Pipe()
		go func() {
			defer srv.Close()
			if _, _, _, err := readFrame(srv); err == nil {
				srv.Write(frame)
			}
		}()
		return cli, nil
	}
}

// TestStickyErrNamesVersions: a client whose server speaks another
// version, or answers in an earlier build's compressed frames — at
// dial, or at the reconnect after the server was swapped for another
// build — must fail with errProtoVersion carrying both
// numbers, and at once: no retry changes the answer, and an EOF after
// the whole backoff budget says nothing about why.
func TestStickyErrNamesVersions(t *testing.T) {
	for ver, frame := range foreignFrames {
		if _, err := Dial([]Dialer{foreignServer(frame)}, Options{}); !errors.Is(err, errProtoVersion) || !namesVersions(err.Error(), ver) {
			t.Errorf("Dial = %v, want errProtoVersion naming both versions", err)
		}

		srv := NewShardServer(frontier.NewSharded(2))
		dial, slept := Dialer(srv.Pipe), 0
		rs, err := Dial([]Dialer{func() (net.Conn, error) { return dial() }}, Options{t: transport{conns: 1}})
		if err != nil {
			t.Fatal(err)
		}
		rs.t().servers[0].sleep = func(time.Duration) { slept++ }
		rs.ApplyRound(nil, nil, []frontier.Entry{{URL: "https://a.com/x", Priority: 1}}, 0)
		dial = foreignServer(frame)
		srv.Close()
		rs.ApplyRound(nil, nil, []frontier.Entry{{URL: "https://a.com/y", Priority: 1}}, 0)
		serr := rs.Err()
		if !errors.Is(serr, errProtoVersion) || !namesVersions(serr.Error(), ver) || !strings.Contains(serr.Error(), ": round (") {
			t.Errorf("sticky error = %v, want errProtoVersion naming the op and both versions", serr)
		}
		if slept != 1 {
			t.Errorf("backed off %d times, want 1 (the redial of the broken connection; the refusal itself is not retried)", slept)
		}
		rs.Close()
	}
}
