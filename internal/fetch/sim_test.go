package fetch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"webevolve/internal/simweb"
)

// simGolden hashes everything a simulated fetch returns — URL,
// not-found flag, checksum, version, the links in order, Size and the
// body bytes — for every window URL of SmallConfig(seed) at a few fixed
// days, fetched both with content and meta-only.
func simGolden(t *testing.T, seed int64) string {
	t.Helper()
	w, err := simweb.New(simweb.SmallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	meta := NewSimFetcher(w)
	content := NewSimFetcher(w)
	content.WithContent = true
	h := sha256.New()
	var num [8]byte
	putInt := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	putStr := func(s string) {
		putInt(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, day := range []float64{0, 3.5, 17, 60, 121.25} {
		for _, s := range w.Sites() {
			for _, u := range s.WindowURLs(day) {
				for _, f := range []*SimFetcher{content, meta} {
					res, err := f.Fetch(u, day)
					if err != nil {
						t.Fatal(err)
					}
					putStr(res.URL)
					putInt(math.Float64bits(res.Day))
					if res.NotFound {
						putInt(1)
					} else {
						putInt(0)
					}
					putInt(res.Checksum)
					putInt(uint64(res.Version))
					putInt(uint64(len(res.Links)))
					for _, l := range res.Links {
						putStr(l)
					}
					putInt(uint64(res.Size))
					putInt(uint64(len(res.Content)))
					h.Write(res.Content)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimFetchGolden pins the simulated fetch bit for bit: bodies, link
// lists and their order, and Size feed every crawl's digest, freshness
// and age, so a faster renderer must reproduce them exactly.
func TestSimFetchGolden(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want string
	}{
		{1, "64b8d21680a3b1b5a7aecf8ecae1fe3b277d279b548d4a42e85281d2f054eb85"},
		{2000, "ae8a8419508d3cf6ffbef3fea482d2a8f980e0e94a9aa6ba986f3aff16162975"},
	} {
		if got := simGolden(t, c.seed); got != c.want {
			t.Errorf("seed %d: fetch digest %s, want %s", c.seed, got, c.want)
		}
	}
}

// TestSimFetchAllocs holds a simulated fetch to what the crawl keeps:
// the link list, plus the body when content is on.
func TestSimFetchAllocs(t *testing.T) {
	w, err := simweb.New(simweb.PaperScaleConfig(1999, 60))
	if err != nil {
		t.Fatal(err)
	}
	meta := NewSimFetcher(w)
	content := NewSimFetcher(w)
	content.WithContent = true
	// A root's list is among the longest: eight spanning-tree children
	// plus its extra and cross-site links.
	u := w.Sites()[0].RootURL()
	for _, c := range []struct {
		name string
		f    *SimFetcher
		max  float64
	}{
		{"content", content, 2},
		{"meta", meta, 1},
	} {
		if res, err := c.f.Fetch(u, 5); err != nil || len(res.Links) == 0 {
			t.Fatalf("%s: %+v, %v", c.name, res, err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := c.f.Fetch(u, 5); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s fetch: %v allocations, want <= %v", c.name, got, c.max)
		}
	}
}

// BenchmarkSimFetch measures the fetch layer alone: SimFetcher over the
// paper-scale web (270 sites, 60-page windows), cycling through every
// window URL at day 5 with and without the body.
func BenchmarkSimFetch(b *testing.B) {
	for _, c := range []struct {
		name        string
		withContent bool
	}{
		{"content", true},
		{"meta", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, err := simweb.New(simweb.PaperScaleConfig(1999, 60))
			if err != nil {
				b.Fatal(err)
			}
			const day = 5
			var urls []string
			for _, s := range w.Sites() {
				urls = append(urls, s.WindowURLs(day)...)
			}
			f := NewSimFetcher(w)
			f.WithContent = c.withContent
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := f.Fetch(urls[i%len(urls)], day); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
