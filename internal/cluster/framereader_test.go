package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"webevolve/internal/frontier"
	"webevolve/internal/store"
)

// allocated reports the bytes fn allocates (TotalAlloc delta).
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLyingSizesAllocateNothingUpFront: a frame's declared sizes are
// claims, not promises. A 64 MiB length prefix costs what actually
// arrives behind it, and a few compressed bytes declaring 64 MiB
// inflated are refused before anything is allocated for them — else any
// peer, or a corrupt WAL tail, could make every frame cost 64 MiB.
func TestLyingSizesAllocateNothingUpFront(t *testing.T) {
	for _, sent := range []int{0, 100 << 10} {
		stream := make([]byte, 8+sent)
		binary.LittleEndian.PutUint32(stream[0:4], maxFrame)
		var err error
		if n := allocated(func() { _, _, _, err = readFrame(bytes.NewReader(stream)) }); n >= 1<<20 {
			t.Errorf("a %d MiB claim backed by %d bytes allocated %d bytes", maxFrame>>20, sent, n)
		}
		want := io.EOF
		if sent > 0 {
			want = io.ErrUnexpectedEOF
		}
		if !errors.Is(err, want) {
			t.Errorf("a %d MiB claim backed by %d bytes: err = %v, want a truncated frame (%v)", maxFrame>>20, sent, err, want)
		}
	}

	var stream bytes.Buffer
	deflateBody(&stream, []byte("tiny")) // uvarint(4) + the deflate stream
	payload := binary.AppendUvarint([]byte{ProtoVersion, opLen, flagCompressed}, maxFrame)
	payload = append(payload, stream.Bytes()[1:]...)
	frame := rawFrame(payload)
	var err error
	if n := allocated(func() { _, _, _, err = readFrame(bytes.NewReader(frame)) }); n >= 1<<20 {
		t.Errorf("%d compressed bytes declaring %d MiB allocated %d bytes", stream.Len()-1, maxFrame>>20, n)
	}
	if !errors.Is(err, errBadFrame) {
		t.Errorf("%d compressed bytes declaring %d MiB: err = %v, want errBadFrame", stream.Len()-1, maxFrame>>20, err)
	}
}

// FuzzFrameSequence: a stream of frames read through one frameReader —
// its buffers reused, grown and dropped from frame to frame, as a
// server connection reads — yields exactly what a fresh readFrame per
// frame yields: the same kinds, bodies and wire sizes, then the same
// error.
func FuzzFrameSequence(f *testing.F) {
	small := validFrame(f, opPush, seedBodies()[opPush][0])
	deflated := validFrame(f, opPushBatch, walBatchBody(9, testURLs(16, 24)))
	noise := make([]byte, 6<<10)
	rand.New(rand.NewSource(1)).Read(noise) // incompressible: a raw frame over compressMin
	raw := validFrame(f, opPushBatch, noise)
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	f.Add(cat(small, deflated, small, deflated))
	f.Add(cat(deflated, raw, small, deflated, small, raw))
	f.Add(cat(raw, deflated[:len(deflated)-3]))
	for _, corrupt := range corruptFrames(f) {
		f.Add(cat(deflated, small, corrupt, small))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frameReader
		reused, fresh := bytes.NewReader(data), bytes.NewReader(data)
		for i := 0; ; i++ {
			kind, body, wire, err := fr.next(reused)
			wantKind, wantBody, wantWire, wantErr := readFrame(fresh)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("frame %d: reused buffers give err %v, a fresh read %v", i, err, wantErr)
			}
			if err != nil {
				return
			}
			if kind != wantKind || wire != wantWire || !bytes.Equal(body, wantBody) {
				t.Fatalf("frame %d: reused buffers give kind %d, %d wire bytes, body %x; a fresh read kind %d, %d, %x",
					i, kind, wire, body, wantKind, wantWire, wantBody)
			}
			fr.release()
		}
	})
}

// TestServerReadBuffersKeepNothing drives a ShardServer and a
// Mem-backed StoreServer — a backend that keeps the very records it is
// handed — over Pipe, one connection each, with a random mix of frames
// below and above compressMin, growing and shrinking, plus one raw and
// one inflated body over frameReaderKeep. Every frame is read into the
// buffers the previous one used, so a decoder that kept a slice of a
// body instead of a copy would surface as state a later frame
// overwrote. The servers' final state must equal an in-process oracle
// fed the same operations.
func TestServerReadBuffersKeepNothing(t *testing.T) {
	shardSrv := NewShardServer(frontier.NewSharded(4))
	defer shardSrv.Close()
	shards, err := Loopback([]*ShardServer{shardSrv}, Options{t: transport{conns: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()
	storeSrv := NewMemStoreServer()
	defer storeSrv.Close()
	rstore, err := LoopbackStore(storeSrv, Options{t: transport{conns: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer rstore.Close()
	coll := rstore.Collection("c")
	wantQueue, wantColl := frontier.NewSharded(4), store.NewMem()

	rng := rand.New(rand.NewSource(23))
	urls := testURLs(8, 64)
	url := func() string { return urls[rng.Intn(len(urls))] }
	words := []string{"<p>", "crawl ", "fresh ", "page ", "</a>", "\n"}
	// record draws a page record with n bytes of content: random noise,
	// which deflate cannot shrink, or text, which it can.
	record := func(n int, noise bool) store.PageRecord {
		r := store.PageRecord{URL: url(), Checksum: rng.Uint64(), FetchedAt: rng.Float64(), Version: rng.Intn(9), Importance: rng.Float64()}
		for k := rng.Intn(4); k > 0; k-- {
			r.Links = append(r.Links, url())
		}
		if n > 0 && noise {
			r.Content = make([]byte, n)
			rng.Read(r.Content)
		} else if n > 0 {
			for len(r.Content) < n {
				r.Content = append(r.Content, words[rng.Intn(len(words))]...)
			}
			r.Content = r.Content[:n]
		}
		return r
	}
	entries := func(n int) []frontier.Entry {
		out := make([]frontier.Entry, n)
		for i := range out {
			out[i] = frontier.Entry{URL: url(), Due: float64(rng.Intn(50)) / 7, Priority: float64(rng.Intn(3))}
		}
		return out
	}

	for step := 0; step < 80; step++ {
		switch p := rng.Float64(); {
		case step == 20 || step == 50:
			// A body over frameReaderKeep: 1.5 MiB of noise travels raw
			// (the payload buffer grows past the cap), 3 MiB of text
			// deflated (the inflate buffer does).
			recs := []store.PageRecord{record(3<<19, true)}
			if step == 50 {
				recs[0] = record(3<<20, false)
			}
			if err := coll.PutBatch(recs); err != nil {
				t.Fatal(err)
			}
			wantColl.PutBatch(recs)
		case p < 0.4:
			sizes := []int{rng.Intn(300), 1<<10 + rng.Intn(5<<10), 10<<10 + rng.Intn(50<<10)}
			recs := make([]store.PageRecord, 1+rng.Intn(24))
			for i := range recs {
				recs[i] = record(sizes[rng.Intn(len(sizes))], rng.Intn(2) == 0)
			}
			if err := coll.PutBatch(recs); err != nil {
				t.Fatal(err)
			}
			wantColl.PutBatch(recs)
		case p < 0.5:
			u := url()
			if err := coll.Delete(u); err != nil {
				t.Fatal(err)
			}
			wantColl.Delete(u)
		case p < 0.8:
			removes := []string{url(), url()}
			pushes := entries(rng.Intn(300))
			peek := rng.Intn(40)
			cands, _, _, ok := shards.ApplyRound(nil, removes, pushes, peek)
			want, _, _, _ := wantQueue.ApplyRound(nil, removes, pushes, peek)
			if !ok || !reflect.DeepEqual(append([]frontier.Entry{}, cands...), append([]frontier.Entry{}, want...)) {
				t.Fatalf("step %d: round candidates %v, want %v", step, cands, want)
			}
		default:
			pushes := entries(1 + rng.Intn(3000))
			shards.PushBatch(pushes)
			wantQueue.PushBatch(pushes)
		}
	}
	if err := shards.Err(); err != nil {
		t.Fatal(err)
	}

	got, err := storeSrv.Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != wantColl.Len() {
		t.Fatalf("store holds %d records, want %d", got.Len(), wantColl.Len())
	}
	for _, u := range wantColl.URLs() {
		rec, _, err := got.Get(u)
		want, _, _ := wantColl.Get(u)
		if err != nil || !reflect.DeepEqual(rec, want) {
			t.Fatalf("%s: stored record differs from the oracle's (err %v)", u, err)
		}
	}
	for i := 0; ; i++ {
		e, gerr := shardSrv.Shards().Pop()
		w, werr := wantQueue.Pop()
		if (gerr == nil) != (werr == nil) || gerr == nil && !sameEntry(e, w) {
			t.Fatalf("pop %d: %+v (%v), want %+v (%v)", i, e, gerr, w, werr)
		}
		if werr != nil {
			break
		}
	}
}
