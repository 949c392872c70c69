package simweb

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// fmtPageChecksum and fmtRenderHTML are pageChecksum and renderHTML as
// they were written with fmt and hash/fnv: the definition of the bytes.
// Checksums, stored bodies and crawl digests all hang off them.
func fmtPageChecksum(url string, version int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(url))
	_, _ = h.Write([]byte{'#'})
	_, _ = fmt.Fprintf(h, "%d", version)
	return h.Sum64()
}

func fmtRenderHTML(url string, version int, links []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s v%d</title></head><body>\n", url, version)
	fmt.Fprintf(&b, "<h1>Synthetic page %s</h1>\n", url)
	fmt.Fprintf(&b, "<p>revision %d; checksum %016x</p>\n", version, fmtPageChecksum(url, version))
	h := fnv.New32a()
	_, _ = h.Write([]byte(url))
	para := int(h.Sum32()%5) + 1
	for i := 0; i < para; i++ {
		fmt.Fprintf(&b, "<p>section %d of revision %d</p>\n", i, version)
	}
	b.WriteString("<ul>\n")
	for _, l := range links {
		fmt.Fprintf(&b, "  <li><a href=\"%s\">%s</a></li>\n", l, l)
	}
	b.WriteString("</ul>\n</body></html>\n")
	return b.String()
}

func TestRenderHTMLMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randURL := func() string {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = byte(' ' + rng.Intn(95)) // any printable ASCII, '%' and '"' included
		}
		return "http://" + string(b)
	}
	type tc struct {
		url     string
		version int
		links   []string
	}
	cases := []tc{
		{"", 0, nil},
		{"http://a.com/", 0, []string{}},
		{"http://a.com/%d%s", -3, []string{"%x", ""}},
		{"http://a.com/p", 1<<63 - 1, []string{"http://b.org/"}},
		{"http://a.com/p", -1 << 63, nil},
	}
	for i := 0; i < 500; i++ {
		c := tc{url: randURL(), version: rng.Intn(5000)}
		for n := rng.Intn(12); n > 0; n-- {
			c.links = append(c.links, randURL())
		}
		cases = append(cases, c)
	}
	sections := map[int]bool{}
	for _, c := range cases {
		if got, want := pageChecksum(c.url, c.version), fmtPageChecksum(c.url, c.version); got != want {
			t.Fatalf("pageChecksum(%q, %d) = %#x, want %#x", c.url, c.version, got, want)
		}
		got, want := renderHTML(c.url, c.version, c.links), fmtRenderHTML(c.url, c.version, c.links)
		if string(got) != want {
			t.Fatalf("renderHTML(%q, %d, %q):\n%s\nwant:\n%s", c.url, c.version, c.links, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("renderHTML(%q, %d, %q): capacity %d for %d bytes; the size formula is no longer exact",
				c.url, c.version, c.links, cap(got), len(got))
		}
		sections[strings.Count(string(got), "<p>section ")] = true
	}
	for n := 1; n <= 5; n++ {
		if !sections[n] {
			t.Errorf("no case rendered %d sections", n)
		}
	}
}
