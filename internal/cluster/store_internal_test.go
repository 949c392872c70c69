package cluster

import (
	"fmt"
	"testing"

	"webevolve/internal/store"
)

// TestStoreURLsChunking drives the opStoreURLs handler directly with a
// small max, checking the resume protocol: bounded chunks, sorted,
// complete, done flag only on the last.
func TestStoreURLsChunking(t *testing.T) {
	srv := NewMemStoreServer()
	defer srv.Close()
	const n = 23
	recs := make([]store.PageRecord, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, store.PageRecord{URL: fmt.Sprintf("http://u.com/p%03d", i), Checksum: uint64(i)})
	}
	coll, err := srv.coll("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.PutBatch(recs); err != nil {
		t.Fatal(err)
	}

	var got []string
	after := ""
	for chunks := 0; ; chunks++ {
		if chunks > n {
			t.Fatal("URLs chunking never finished")
		}
		var e enc
		e.str("c").str(after).u32(5)
		status, resp := srv.handle(opStoreURLs, e.b)
		if status != statusOK {
			t.Fatalf("chunk after %q: %s", after, resp)
		}
		d := newDec(resp)
		chunk := decodeStrings(d, after)
		cn := len(chunk)
		if cn > 5 {
			t.Fatalf("chunk of %d exceeds max 5", cn)
		}
		got = append(got, chunk...)
		done := d.bool()
		if err := d.finish(); err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if cn == 0 {
			t.Fatal("empty chunk without done")
		}
		after = got[len(got)-1]
	}
	if len(got) != n {
		t.Fatalf("chunked URLs returned %d, want %d", len(got), n)
	}
	for i, u := range got {
		if want := fmt.Sprintf("http://u.com/p%03d", i); u != want {
			t.Fatalf("position %d: %s, want %s", i, u, want)
		}
	}
}
