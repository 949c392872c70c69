package cluster

import (
	"fmt"
	"testing"

	"webevolve/internal/frontier"
)

// BenchmarkEncodeEntries pins the entry codec's cost and allocation
// profile (varints, front-coded URLs). The bytes/entry metric is the
// on-wire body size the compression layer then sees.
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
