package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/simweb"
	"webevolve/internal/webgraph"
)

// TestExtendLinksMatchesAddingEveryLink: AllUrls fed only the links
// SetLinks reports as new ends every step with the same URLInfo —
// FirstSeen and InLinks, for every URL — as AllUrls fed
// every link of every fetch, as applyContent did before it diffed. The
// history drops pages (the graph forgets them, AllUrls does not) and
// re-links pages so that links leave a page and later come back, and
// the test checks that both happened.
func TestExtendLinksMatchesAddingEveryLink(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	page := func() string { return fmt.Sprintf("http://s%d.com/p%d", rng.Intn(3), rng.Intn(12)) }
	g := webgraph.New()
	diffed, full := frontier.NewAllUrls(), frontier.NewAllUrls()
	var buf []string
	left := map[[2]string]bool{}
	returned := 0
	for step := 0; step < 3000; step++ {
		day := float64(step) / 10
		url := page()
		if rng.Intn(12) == 0 {
			g.RemovePage(url)
			continue
		}
		links := make([]string, rng.Intn(24))
		for i := range links {
			links[i] = page()
		}
		for _, old := range g.OutLinks(url) {
			if !slices.Contains(links, old) {
				left[[2]string{url, old}] = true
			}
		}
		for _, l := range links {
			if left[[2]string{url, l}] {
				delete(left, [2]string{url, l})
				returned++
			}
		}
		buf = extendLinks(g, diffed, url, links, day, buf)
		for _, l := range links {
			full.AddLink(url, l, day)
		}
		var a, b []frontier.URLInfo
		diffed.Scan(func(u frontier.URLInfo) bool { a = append(a, u); return true })
		full.Scan(func(u frontier.URLInfo) bool { b = append(b, u); return true })
		if !slices.Equal(a, b) {
			t.Fatalf("step %d: AllUrls from added links\n%v\nfrom every link\n%v", step, a, b)
		}
	}
	if returned < 100 {
		t.Fatalf("only %d links left a page and came back", returned)
	}
}

// TestLinkStateGauges: after every RunUntil of a crawl, the link-state
// gauges the content stage sets equal AllUrls' size and the graph's
// edge count, counted page by page.
func TestLinkStateGauges(t *testing.T) {
	w, err := simweb.New(simweb.SmallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(baseConfig(w), fetch.NewSimFetcher(w))
	if err != nil {
		t.Fatal(err)
	}
	for _, until := range []float64{1, 3, 6} {
		if err := c.RunUntil(until); err != nil {
			t.Fatal(err)
		}
		links := 0
		for _, p := range c.Graph().Pages() {
			links += len(c.Graph().OutLinks(p))
		}
		urls := c.AllUrls().Len()
		if links == 0 || urls <= len(w.RootURLs()) {
			t.Fatalf("day %v: %d links, %d URLs: the crawl found nothing", until, links, urls)
		}
		if got := engineURLsKnown.Value(); got != int64(urls) {
			t.Fatalf("day %v: urls_known %d, AllUrls holds %d", until, got, urls)
		}
		if got := engineGraphLinks.Value(); got != int64(links) {
			t.Fatalf("day %v: graph_links %d, the graph holds %d", until, got, links)
		}
	}
}
