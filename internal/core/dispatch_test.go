package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webevolve/internal/fetch"
	"webevolve/internal/webgraph"
)

// failingFetcher errors on the nth fetch (1-based) and every fetch
// after it.
type failingFetcher struct {
	inner fetch.Fetcher
	n     atomic.Int64
	at    int64
}

func (f *failingFetcher) Fetch(url string, day float64) (fetch.Result, error) {
	if f.n.Add(1) >= f.at {
		return fetch.Result{}, errors.New("injected fetch failure")
	}
	return f.inner.Fetch(url, day)
}

// TestPipelineFetchErrorDrains is the pipeline's failure contract: a
// fetch error in the middle of overlapped rounds must surface from
// RunUntil, drain every in-flight round (no goroutine leak), and leave
// no partially applied round behind — the collection and frontier
// reflect only rounds that were folded in completely.
func TestPipelineFetchErrorDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w, f := testWeb(t, 31)
	cfg := baseConfig(w)
	cfg.Workers = 8
	cfg.Shards = 16
	cfg.DispatchBatch = 32
	ff := &failingFetcher{inner: fetch.Delayed{Base: f, Delay: 50 * time.Microsecond}, at: 150}
	c, err := New(cfg, ff)
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunUntil(15)
	if err == nil || !strings.Contains(err.Error(), "injected fetch failure") {
		t.Fatalf("fetch failure not surfaced: %v", err)
	}
	// Metrics count only fully applied rounds: every counted fetch
	// succeeded strictly before the first failure.
	if got := c.Metrics().Fetches; got >= 150 {
		t.Fatalf("partial round applied: %d fetches counted, failure at 150", got)
	}
	// The collection only holds pages from applied rounds.
	if n := c.Collection().Len(); int64(n) > c.Metrics().Fetches {
		t.Fatalf("collection holds %d pages but only %d fetches applied", n, c.Metrics().Fetches)
	}
	// All pool workers and the plan rebuild must have exited.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after pipeline error: %d > %d\n%s",
			got, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestPipelineErrorThenResume: after a failed RunUntil, a fresh
// RunUntil on the same crawler keeps working — the pool is rebuilt per
// run and no round state leaks across runs.
func TestPipelineErrorThenResume(t *testing.T) {
	w, f := testWeb(t, 32)
	cfg := baseConfig(w)
	cfg.Workers = 4
	ff := &failingFetcher{inner: f, at: 60}
	c, err := New(cfg, ff)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(15); err == nil {
		t.Fatal("expected fetch failure")
	}
	before := c.Metrics().Fetches
	ff.at = 1 << 60 // heal the fetcher
	if err := c.RunUntil(15); err != nil {
		t.Fatalf("resume after failure: %v", err)
	}
	if c.Metrics().Fetches <= before {
		t.Fatalf("no progress after resume: %d <= %d", c.Metrics().Fetches, before)
	}
}

// TestDispatchPoolSiteLines pins the pool's ordering contract: groups
// of one site run strictly in submission order even when submitted as
// separate rounds, while other sites proceed in parallel.
func TestDispatchPoolSiteLines(t *testing.T) {
	var mu struct {
		order []int
		ch    chan struct{}
	}
	mu.ch = make(chan struct{}, 64)
	var seq atomic.Int64
	pool := newDispatchPool(4, func(j *crawlJob) error {
		if j.site == "a" {
			mu.order = append(mu.order, j.idx) // site-serial: no race by contract
		}
		seq.Add(1)
		return nil
	})
	defer pool.close()

	mk := func(site string, idx int) dispatchGroup {
		return dispatchGroup{jobs: []*crawlJob{{idx: idx, site: site, url: site}}, site: site}
	}
	h1 := pool.startRound([]dispatchGroup{mk("a", 0), mk("b", 100), mk("a", 1)})
	// A second round's site-a group queues behind the first round's.
	h2 := pool.startRound([]dispatchGroup{mk("a", 2), mk("c", 200)})
	if err := pool.wait(h1); err != nil {
		t.Fatal(err)
	}
	if err := pool.wait(h2); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	if len(mu.order) != len(want) {
		t.Fatalf("site-a ran %v, want %v", mu.order, want)
	}
	for i := range want {
		if mu.order[i] != want[i] {
			t.Fatalf("site-a order %v, want %v", mu.order, want)
		}
	}
}

// TestDispatchRoundStopsOnError: a failing job stops the round —
// later jobs of its site and groups not yet started are skipped — and
// DispatchRound still returns (every group completes) with that error.
func TestDispatchRoundStopsOnError(t *testing.T) {
	urls := make([]string, 8)
	for i := range urls {
		urls[i] = "http://a.example/" + strconv.Itoa(i)
	}
	var ran atomic.Int64
	err := DispatchRound(2, urls, func(i int) error {
		ran.Add(1)
		return errors.New("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("DispatchRound returned %v, want the job's error", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d jobs ran after the first failure of a one-site round, want 1", n)
	}
}

// TestDispatchRoundGroupsBySite pins DispatchRound's contract: every
// URL runs once; one site's URLs run in slice order and never overlap,
// while other sites proceed in parallel; and with one worker, the
// largest site's group runs first.
func TestDispatchRoundGroupsBySite(t *testing.T) {
	var urls []string
	for i := 0; i < 12; i++ {
		urls = append(urls, fmt.Sprintf("http://s%d.example/p%02d", i%3, i))
	}
	for _, p := range []string{"a", "b", "c", "d", "e"} {
		urls = append(urls, "http://big.example/"+p)
	}
	for _, workers := range []int{1, 8} {
		var mu sync.Mutex
		order := map[string][]int{}
		active := map[string]int{}
		var first []int
		overlap := false
		err := DispatchRound(workers, urls, func(i int) error {
			site := webgraph.SiteOf(urls[i])
			mu.Lock()
			first = append(first, i)
			order[site] = append(order[site], i)
			active[site]++
			overlap = overlap || active[site] > 1
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			active[site]--
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != len(urls) {
			t.Fatalf("%d workers: %d jobs ran for %d URLs", workers, len(first), len(urls))
		}
		if workers == 1 && webgraph.SiteOf(urls[first[0]]) != "big.example" {
			t.Fatalf("first job %s, want the largest site's", urls[first[0]])
		}
		for site, idx := range order {
			if !sort.IntsAreSorted(idx) {
				t.Fatalf("%d workers: site %s ran out of order: %v", workers, site, idx)
			}
		}
		if overlap {
			t.Fatalf("%d workers: two jobs of one site overlapped", workers)
		}
	}
}
