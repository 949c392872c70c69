package core

import (
	"slices"
	"sync"
	"testing"

	"webevolve/internal/fetch"
	"webevolve/internal/simweb"
)

// TestLinkStateGauges: after every RunUntil of a crawl, the link-state
// gauges the content stage sets equal the URL table's size and the
// graph's edge count, counted page by page.
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
			t.Fatalf("day %v: urls_known %d, the URL table holds %d", until, got, urls)
		}
		if got := engineGraphLinks.Value(); got != int64(links) {
			t.Fatalf("day %v: graph_links %d, the graph holds %d", until, got, links)
		}
	}
}

// vanishingFetcher serves a two-page web: the seed, and a page x that
// exists, and that the seed links to, before day gone and again from
// day back on. The seed's checksum changes with its links. Every fetch
// of x is logged.
type vanishingFetcher struct {
	seed, x    string
	gone, back float64

	mu  sync.Mutex
	log []fetch.Result
}

func (f *vanishingFetcher) present(day float64) bool { return day < f.gone || day >= f.back }

func (f *vanishingFetcher) Fetch(url string, day float64) (fetch.Result, error) {
	res := fetch.Result{URL: url, Day: day, Size: 100}
	switch {
	case url == f.seed && f.present(day):
		res.Checksum, res.Links = 1, []string{f.x}
	case url == f.seed:
		res.Checksum = 2
	case url == f.x && f.present(day):
		res.Checksum = 3
	default:
		res = fetch.Result{URL: url, Day: day, NotFound: true}
	}
	if url == f.x {
		f.mu.Lock()
		f.log = append(f.log, res)
		f.mu.Unlock()
	}
	return res, nil
}

// xFetches returns the log of x's fetches so far.
func (f *vanishingFetcher) xFetches() []fetch.Result {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.log)
}

// TestVanishedPageIsNoCandidate: a page that vanished and that nothing
// links to any more is no refinement candidate, even with free slots in
// the collection; it was discovered, but it is no node of the graph the
// ranking pass ranks. Once a fetched page links to it again, the graph
// holds it again and the next pass admits it.
func TestVanishedPageIsNoCandidate(t *testing.T) {
	f := &vanishingFetcher{seed: "http://s.com/", x: "http://s.com/x", gone: 3, back: 10}
	c, err := New(Config{
		Seeds:          []string{f.seed},
		CollectionSize: 10,
		PagesPerDay:    60,
		CycleDays:      4,
		BatchDays:      1,
		RankEveryDays:  2,
		Estimator:      EstimatorEP,
	}, f)
	if err != nil {
		t.Fatal(err)
	}
	// The seed links to x on day 0, a pass admits x on day 2, and the
	// seed drops the link on its day-4 revisit: x's day-6 revisit finds
	// it gone.
	if err := c.RunUntil(f.back); err != nil {
		t.Fatal(err)
	}
	log := f.xFetches()
	if len(log) < 2 || log[0].NotFound || !log[1].NotFound {
		t.Fatalf("x's fetches %+v: want it found, then gone", log)
	}
	if len(log) != 2 || c.Metrics().NotFound != 1 {
		t.Fatalf("x fetched again while gone and unlinked: %+v (%d not found)", log[2:], c.Metrics().NotFound)
	}
	if slices.Contains(c.CollUrls().URLs(), f.x) || c.Graph().HasPage(f.x) {
		t.Fatal("x is still queued or in the graph after it vanished")
	}
	// The seed links to x again from day 10, which its day-12 revisit
	// sees; the day-14 pass admits x, which is back.
	if err := c.RunUntil(16); err != nil {
		t.Fatal(err)
	}
	log = f.xFetches()
	if len(log) != 3 || log[2].NotFound || log[2].Day < f.back {
		t.Fatalf("x's fetches %+v: want one more, found, once the seed links to it again", log)
	}
	if _, ok, err := c.Collection().Get(f.x); err != nil || !ok {
		t.Fatalf("x not back in the collection (err %v)", err)
	}
}
