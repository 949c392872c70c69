package fetch

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webevolve/internal/clock"
	"webevolve/internal/robots"
	"webevolve/internal/simweb"
)

func simFetcher(t *testing.T) *SimFetcher {
	t.Helper()
	w, err := simweb.New(simweb.SmallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return NewSimFetcher(w)
}

func TestSimFetcherFetch(t *testing.T) {
	f := simFetcher(t)
	root := f.Web().Sites()[0].RootURL()
	res, err := f.Fetch(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NotFound || res.Checksum == 0 || len(res.Links) == 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.Content != nil {
		t.Fatal("content returned without WithContent")
	}
	if res.Size <= 0 {
		t.Fatal("size not approximated")
	}
	if f.Fetches() != 1 {
		t.Fatalf("fetch count %d", f.Fetches())
	}
}

// TestSimFetcherConcurrentSites drives many workers fetching disjoint
// sites in parallel with monotone per-site days — the access pattern
// the crawl engines guarantee via shard affinity. With the per-site
// lock striping this runs race-free without one global mutex, and each
// page's observed state stays deterministic.
func TestSimFetcherConcurrentSites(t *testing.T) {
	w, err := simweb.New(simweb.Config{
		Seed: 9,
		SitesPerDomain: map[simweb.Domain]int{
			simweb.Com: 4, simweb.Edu: 2, simweb.NetOrg: 1, simweb.Gov: 1,
		},
		PagesPerSite: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := NewSimFetcher(w)
	sites := w.Sites()
	type obs struct {
		url string
		day float64
		sum uint64
	}
	results := make([][]obs, len(sites))
	done := make(chan int, len(sites))
	for i, s := range sites {
		go func(i int, root string) {
			for day := 0.0; day < 20; day++ {
				res, err := f.Fetch(root, day)
				if err == nil && !res.NotFound {
					results[i] = append(results[i], obs{root, day, res.Checksum})
				}
			}
			done <- i
		}(i, s.RootURL())
	}
	for range sites {
		<-done
	}
	// Replay against a fresh identical web: concurrent per-site access
	// must have observed exactly the sequential evolution.
	w2, err := simweb.New(simweb.Config{
		Seed: 9,
		SitesPerDomain: map[simweb.Domain]int{
			simweb.Com: 4, simweb.Edu: 2, simweb.NetOrg: 1, simweb.Gov: 1,
		},
		PagesPerSite: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewSimFetcher(w2)
	for i := range results {
		for _, o := range results[i] {
			res, err := f2.Fetch(o.url, o.day)
			if err != nil {
				t.Fatal(err)
			}
			if res.Checksum != o.sum {
				t.Fatalf("site %d day %v: checksum %x, sequential replay %x",
					i, o.day, o.sum, res.Checksum)
			}
		}
	}
}

// TestSimFetcherUnknownHostConcurrent covers the shared fallback lock.
func TestSimFetcherUnknownHostConcurrent(t *testing.T) {
	f := simFetcher(t)
	done := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				res, err := f.Fetch("http://nowhere.invalid/x", float64(j))
				if err != nil || !res.NotFound {
					t.Errorf("unknown host: %+v, %v", res, err)
					break
				}
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestSimFetcherWithContent(t *testing.T) {
	f := simFetcher(t)
	f.WithContent = true
	root := f.Web().Sites()[0].RootURL()
	res, err := f.Fetch(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Content) == 0 || res.Size != len(res.Content) {
		t.Fatalf("content missing: size=%d len=%d", res.Size, len(res.Content))
	}
	if !strings.Contains(string(res.Content), "<html>") {
		t.Fatal("content not HTML")
	}
}

func TestSimFetcherNotFound(t *testing.T) {
	f := simFetcher(t)
	res, err := f.Fetch("http://site000.com/p99999", 0)
	if err != nil {
		t.Fatalf("missing page should not error: %v", err)
	}
	if !res.NotFound {
		t.Fatal("missing page not flagged")
	}
	if f.NotFoundCount() != 1 {
		t.Fatalf("not-found count %d", f.NotFoundCount())
	}
}

// TestDelayedWaitsThenForwards: a Delayed fetch returns exactly what
// its base returns, no sooner than the delay, and concurrent fetches
// wait out their delays side by side rather than one after another.
func TestDelayedWaitsThenForwards(t *testing.T) {
	base := simFetcher(t)
	root := base.Web().Sites()[0].RootURL()
	want, err := base.Fetch(root, 3)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 30 * time.Millisecond
	d := Delayed{Base: base, Delay: delay}
	start := time.Now()
	got, err := d.Fetch(root, 3)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < delay {
		t.Fatalf("fetch returned after %v, before its %v delay", el, delay)
	}
	if got.URL != want.URL || got.Checksum != want.Checksum || got.Version != want.Version || len(got.Links) != len(want.Links) {
		t.Fatalf("delayed fetch returned %+v, base %+v", got, want)
	}
	if res, err := d.Fetch("http://nowhere.invalid/x", 3); err != nil || !res.NotFound {
		t.Fatalf("unknown page through the delay: %+v, %v", res, err)
	}

	const n = 8
	var wg sync.WaitGroup
	start = time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Fetch(root, 3); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if el := time.Since(start); el >= n*delay {
		t.Fatalf("%d concurrent fetches took %v: the delays did not overlap", n, el)
	}
}

func TestChecksum64Distinguishes(t *testing.T) {
	a := Checksum64([]byte("hello"))
	b := Checksum64([]byte("hello!"))
	if a == b {
		t.Fatal("checksum collision on trivially different inputs")
	}
	if a != Checksum64([]byte("hello")) {
		t.Fatal("checksum not deterministic")
	}
}

// --- HTTPFetcher tests against httptest servers ---

func TestHTTPFetcherBasic(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/robots.txt" {
			w.WriteHeader(404)
			return
		}
		hits.Add(1)
		w.Header().Set("Content-Type", "text/html")
		_, _ = w.Write([]byte(`<html><a href="/next">n</a></html>`))
	}))
	defer srv.Close()

	f := &HTTPFetcher{Politeness: robots.Politeness{}}
	res, err := f.Fetch(srv.URL+"/page", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NotFound || res.Checksum == 0 {
		t.Fatalf("result %+v", res)
	}
	if len(res.Links) != 1 || res.Links[0] != srv.URL+"/next" {
		t.Fatalf("links %v", res.Links)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits %d", hits.Load())
	}
}

func TestHTTPFetcherNotFound(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(404)
	}))
	defer srv.Close()
	f := &HTTPFetcher{SkipRobots: true}
	res, err := f.Fetch(srv.URL+"/gone", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NotFound {
		t.Fatal("404 not flagged")
	}
}

func TestHTTPFetcherServerErrorIsError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(500)
	}))
	defer srv.Close()
	f := &HTTPFetcher{SkipRobots: true}
	if _, err := f.Fetch(srv.URL+"/boom", 0); err == nil {
		t.Fatal("500 did not error")
	}
}

func TestHTTPFetcherHonoursRobots(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/robots.txt":
			_, _ = w.Write([]byte("User-agent: *\nDisallow: /private\n"))
		default:
			_, _ = w.Write([]byte("content"))
		}
	}))
	defer srv.Close()
	f := &HTTPFetcher{}
	res, err := f.Fetch(srv.URL+"/private/x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NotFound {
		t.Fatal("disallowed path fetched")
	}
	res, err = f.Fetch(srv.URL+"/public", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NotFound {
		t.Fatal("allowed path blocked")
	}
}

func TestHTTPFetcherPolitenessSpacing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("x"))
	}))
	defer srv.Close()
	vc := clock.NewVirtual(time.Date(1999, 3, 1, 22, 0, 0, 0, time.UTC))
	f := &HTTPFetcher{
		SkipRobots: true,
		Clock:      vc,
		Politeness: robots.Politeness{MinDelay: 10 * time.Second},
		Epoch:      vc.Now(),
	}
	if _, err := f.Fetch(srv.URL+"/1", 0); err != nil {
		t.Fatal(err)
	}
	before := vc.Now()
	if _, err := f.Fetch(srv.URL+"/2", 0); err != nil {
		t.Fatal(err)
	}
	if got := vc.Now().Sub(before); got < 10*time.Second {
		t.Fatalf("second request spaced only %v", got)
	}
}

func TestHTTPFetcherDayAnchoredToEpoch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("x"))
	}))
	defer srv.Close()
	epoch := time.Date(1999, 2, 17, 0, 0, 0, 0, time.UTC)
	vc := clock.NewVirtual(epoch.Add(48 * time.Hour))
	f := &HTTPFetcher{SkipRobots: true, Clock: vc, Epoch: epoch}
	res, err := f.Fetch(srv.URL+"/x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Day < 1.99 || res.Day > 2.01 {
		t.Fatalf("day %v, want ~2", res.Day)
	}
}

func TestHTTPFetcherBodyLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(make([]byte, 1<<20))
	}))
	defer srv.Close()
	f := &HTTPFetcher{SkipRobots: true, MaxBodyBytes: 1024}
	res, err := f.Fetch(srv.URL+"/big", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 1024 {
		t.Fatalf("size %d, want capped 1024", res.Size)
	}
}

func TestHTTPFetcherBadURL(t *testing.T) {
	f := &HTTPFetcher{SkipRobots: true}
	if _, err := f.Fetch("http://bad url with spaces/", 0); err == nil {
		t.Fatal("bad URL accepted")
	}
}

func TestHTTPFetcherRobotsCached(t *testing.T) {
	var robotHits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/robots.txt" {
			robotHits.Add(1)
			_, _ = w.Write([]byte(""))
			return
		}
		_, _ = w.Write([]byte("x"))
	}))
	defer srv.Close()
	f := &HTTPFetcher{}
	for i := 0; i < 3; i++ {
		if _, err := f.Fetch(srv.URL+"/p", 0); err != nil {
			t.Fatal(err)
		}
	}
	if robotHits.Load() != 1 {
		t.Fatalf("robots.txt fetched %d times", robotHits.Load())
	}
}

func TestHTTPFetcherSkipsLinkExtractionForNonHTML(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/pdf")
		_, _ = w.Write([]byte(`<a href="http://x.com/">x</a>`))
	}))
	defer srv.Close()
	f := &HTTPFetcher{SkipRobots: true}
	res, err := f.Fetch(srv.URL+"/doc.pdf", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 0 {
		t.Fatalf("links extracted from PDF: %v", res.Links)
	}
}
