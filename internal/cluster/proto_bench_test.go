package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/simweb"
	"webevolve/internal/store"
)

// BenchmarkEncodeEntries pins the entry codec's cost and allocation
// profile (varints, front-coded URLs). The bytes/entry metric is the
// body size a frame then carries raw.
func BenchmarkEncodeEntries(b *testing.B) {
	const n = 64
	entries := make([]frontier.Entry, n)
	for i := range entries {
		entries[i] = frontier.Entry{
			URL: fmt.Sprintf("http://site%03d.com/p%05d", i%8, i),
			Due: float64(i % 9), Priority: float64(i % 3),
		}
	}
	b.ReportAllocs()
	var body int
	for i := 0; i < b.N; i++ {
		var e enc
		encodeEntries(&e, entries)
		body = len(e.b)
		if got := decodeEntries(newDec(e.b)); len(got) != n {
			b.Fatalf("decoded %d entries, want %d", len(got), n)
		}
	}
	b.ReportMetric(float64(body)/n, "bytes/entry")
}

// crawlBodies builds the two bodies that dominate a remote crawl's
// wire, from pages of the simulated web the benchmark crawls: an opRound
// reply carrying one dispatch round (16) of pop candidates, and an
// opStorePutValues body carrying the page records of a round.
func crawlBodies(tb testing.TB) (roundReply, putBatch []byte) {
	tb.Helper()
	web, err := simweb.New(simweb.PaperScaleConfig(1999, 60))
	if err != nil {
		tb.Fatal(err)
	}
	sim := fetch.NewSimFetcher(web)
	sim.WithContent = true
	// Breadth-first below the roots (whose link lists are atypically
	// long), so the pages span many sites as a dispatch round does.
	roots := web.RootURLs()
	queue, seen := roots, map[string]bool{}
	for _, u := range roots {
		seen[u] = true
		res, err := sim.Fetch(u, 1)
		if err != nil {
			tb.Fatal(err)
		}
		queue = append(queue, res.Links...)
	}
	queue = queue[len(roots):]
	var recs []store.PageRecord
	var ents []frontier.Entry
	for len(recs) < 16 && len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if seen[u] {
			continue
		}
		seen[u] = true
		res, err := sim.Fetch(u, 1)
		if err != nil {
			tb.Fatal(err)
		}
		if res.NotFound {
			continue
		}
		queue = append(queue, res.Links...)
		i := len(recs)
		recs = append(recs, store.PageRecord{
			URL: u, Checksum: res.Checksum, FetchedAt: 1, Version: res.Version,
			Links: res.Links, Content: res.Content, Importance: 1e-4 / float64(i+1),
		})
		ents = append(ents, frontier.Entry{URL: u, Due: 1 + float64(i*7%16)/97, Priority: 1e-4 / float64(i+1)})
	}
	// Candidates travel in due order, which interleaves sites.
	sort.Slice(ents, func(i, j int) bool { return frontier.EntryBefore(ents[i], ents[j]) })
	var reply enc
	encodeEntries(&reply, ents)
	reply.bool(false)

	sort.Slice(recs, func(i, j int) bool { return recs[i].URL < recs[j].URL })
	var put enc
	put.fix64(0x9e3779b97f4a7c15).str("pages").u32(uint32(len(recs)))
	prev := ""
	for i := range recs {
		appendPair(&put, prev, recs[i].URL, store.AppendValue(nil, &recs[i]))
		prev = recs[i].URL
	}
	return reply.b, put.b
}

// BenchmarkFrame is the frame codec's own ledger line: one writeFrame
// and one read back through a reused frameReader — a server
// connection's read path — per op, for an opRound reply and a store
// put-batch body, both sent raw. bodyB and wireB are the body's size
// and the frame's on the wire (the body plus the 11-byte header).
func BenchmarkFrame(b *testing.B) {
	roundReply, putBatch := crawlBodies(b)
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"round_reply", roundReply},
		{"put_batch", putBatch},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf bytes.Buffer
			var fr frameReader
			wire := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				n, err := writeFrame(&buf, statusOK, bc.body)
				if err != nil {
					b.Fatal(err)
				}
				wire = n
				if _, body, _, err := fr.next(&buf); err != nil || len(body) != len(bc.body) {
					b.Fatalf("read back %d of %d body bytes: %v", len(body), len(bc.body), err)
				}
			}
			b.ReportMetric(float64(len(bc.body)), "bodyB")
			b.ReportMetric(float64(wire), "wireB")
		})
	}
}
