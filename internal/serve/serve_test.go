package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"webevolve/internal/freshness"
	"webevolve/internal/obs"
	"webevolve/internal/store"
)

// Shadowed-implements-Source is a compile-time fact the swap-safety
// story rests on; asserted here (not in serve.go) so the non-test
// package references nothing of the store but its read-only plane.
var _ Source = (*store.Shadowed)(nil)

// testRecords is the fixture collection: URLs with schemes and double
// slashes, exactly the shapes that break path-cleaning routers.
var testRecords = []store.PageRecord{
	{URL: "http://a.com/", Checksum: 0xa0, FetchedAt: 1.5, Content: []byte("<html><body>home</body></html>"), Links: []string{"http://a.com/p1"}},
	{URL: "http://a.com/p1", Checksum: 0xa1, FetchedAt: 2.0, Content: []byte("page one")},
	{URL: "http://a.com/p2", Checksum: 0xa2, FetchedAt: 2.5, Content: []byte("page two")},
	{URL: "http://b.org/x", Checksum: 0xb0, FetchedAt: 3.0, Content: []byte("bee")},
}

func newTestShadowed(t *testing.T) *store.Shadowed {
	t.Helper()
	s := store.NewShadowedMem()
	for _, rec := range testRecords {
		if err := s.Current().Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { s.Close() })
	return s
}

type fakeEstimates map[string]Estimate

func (f fakeEstimates) Estimate(url string) (Estimate, bool) {
	e, ok := f[url]
	return e, ok
}

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *store.Shadowed) {
	t.Helper()
	sh := newTestShadowed(t)
	if cfg.Source == nil {
		cfg.Source = sh
	}
	if cfg.Metrics == nil {
		// A private registry per test server: counters assert exact
		// per-server values, which the shared obs.Default would blur
		// across tests.
		cfg.Metrics = obs.NewRegistry()
	}
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts, sh
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestGetPage(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ts, _ := newTestServer(t, Config{Epoch: epoch})

	cases := []struct {
		name    string
		path    string
		hdr     map[string]string
		status  int
		body    string // exact body, when non-empty
		errPart string // substring of the JSON error, when non-empty
	}{
		{name: "hit raw URL in path", path: "/v1/pages/http://a.com/p1", status: 200, body: "page one"},
		{name: "hit percent-encoded", path: "/v1/pages/http%3A%2F%2Fa.com%2Fp2", status: 200, body: "page two"},
		{name: "hit via query param", path: "/v1/pages/x?url=http://b.org/x", status: 200, body: "bee"},
		{name: "trailing-slash URL survives routing", path: "/v1/pages/http://a.com/", status: 200, body: "<html><body>home</body></html>"},
		{name: "miss", path: "/v1/pages/http://a.com/nope", status: 404, errPart: "not in collection"},
		{name: "empty page URL", path: "/v1/pages/", status: 400, errPart: "empty"},
		{name: "unknown endpoint", path: "/v2/pages/http://a.com/", status: 404, errPart: "no such endpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts.URL+tc.path, tc.hdr)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %q)", resp.StatusCode, tc.status, body)
			}
			if tc.body != "" && string(body) != tc.body {
				t.Fatalf("body %q, want %q", body, tc.body)
			}
			if tc.errPart != "" {
				var e map[string]string
				if err := json.Unmarshal(body, &e); err != nil {
					t.Fatalf("error body is not JSON: %q", body)
				}
				if !strings.Contains(e["error"], tc.errPart) {
					t.Fatalf("error %q missing %q", e["error"], tc.errPart)
				}
			}
		})
	}

	t.Run("metadata headers", func(t *testing.T) {
		resp, _ := get(t, ts.URL+"/v1/pages/http://a.com/p1", nil)
		if et := resp.Header.Get("ETag"); et != `"a1"` {
			t.Fatalf("ETag %q, want %q", et, `"a1"`)
		}
		if cs := resp.Header.Get("X-Webevolve-Checksum"); cs != "a1" {
			t.Fatalf("checksum header %q", cs)
		}
		// FetchedAt 2.0 days after the epoch.
		want := epoch.Add(48 * time.Hour).Format(http.TimeFormat)
		if lm := resp.Header.Get("Last-Modified"); lm != want {
			t.Fatalf("Last-Modified %q, want %q", lm, want)
		}
	})

	t.Run("meta JSON", func(t *testing.T) {
		resp, body := get(t, ts.URL+"/v1/pages/http://a.com/?meta=1", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var m PageMeta
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if m.URL != "http://a.com/" || m.Checksum != "a0" || m.ContentBytes != len(testRecords[0].Content) || m.Links != 1 {
			t.Fatalf("meta %+v", m)
		}
	})

	t.Run("malformed escape rejected", func(t *testing.T) {
		// The Go client refuses to send an invalid escape, so speak raw
		// HTTP: the server must answer 400, not serve or crash.
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "GET /v1/pages/http%%zz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
		reply, err := io.ReadAll(conn)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(reply), "HTTP/1.1 400") {
			t.Fatalf("reply %q, want 400", string(reply)[:min(len(reply), 40)])
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/pages/http://a.com/", "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST status %d, want 405", resp.StatusCode)
		}
	})
}

func TestConditionalRequests(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ts, _ := newTestServer(t, Config{Epoch: epoch})
	page := ts.URL + "/v1/pages/http://a.com/p1" // checksum a1, day 2.0
	modified := epoch.Add(48 * time.Hour)

	cases := []struct {
		name   string
		hdr    map[string]string
		status int
	}{
		{"no conditions", nil, 200},
		{"etag match", map[string]string{"If-None-Match": `"a1"`}, 304},
		{"etag mismatch", map[string]string{"If-None-Match": `"dead"`}, 200},
		{"etag star", map[string]string{"If-None-Match": "*"}, 304},
		{"weak etag match", map[string]string{"If-None-Match": `W/"a1"`}, 304},
		{"etag list match", map[string]string{"If-None-Match": `"x", "a1"`}, 304},
		{"ims not modified", map[string]string{"If-Modified-Since": modified.Format(http.TimeFormat)}, 304},
		{"ims modified since", map[string]string{"If-Modified-Since": modified.Add(-time.Hour).Format(http.TimeFormat)}, 200},
		// If-None-Match takes precedence: a mismatching tag forces 200
		// even with a satisfied If-Modified-Since.
		{"inm precedence", map[string]string{
			"If-None-Match":     `"dead"`,
			"If-Modified-Since": modified.Format(http.TimeFormat),
		}, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, page, tc.hdr)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.status == 304 {
				if len(body) != 0 {
					t.Fatalf("304 carried a body: %q", body)
				}
				if et := resp.Header.Get("ETag"); et != `"a1"` {
					t.Fatalf("304 ETag %q", et)
				}
			}
		})
	}
}

func listPage(t *testing.T, base, query string) PageList {
	t.Helper()
	resp, body := get(t, base+"/v1/pages"+query, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("list %q: status %d (%s)", query, resp.StatusCode, body)
	}
	var pl PageList
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestListPages(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	t.Run("all", func(t *testing.T) {
		pl := listPage(t, ts.URL, "")
		if pl.Count != 4 || pl.Next != "" {
			t.Fatalf("count %d next %q", pl.Count, pl.Next)
		}
		for i := 1; i < len(pl.Pages); i++ {
			if pl.Pages[i-1].URL >= pl.Pages[i].URL {
				t.Fatalf("listing out of order: %q >= %q", pl.Pages[i-1].URL, pl.Pages[i].URL)
			}
		}
	})

	t.Run("pagination resume", func(t *testing.T) {
		var got []string
		query := "?limit=2"
		for {
			pl := listPage(t, ts.URL, query)
			for _, p := range pl.Pages {
				got = append(got, p.URL)
			}
			if pl.Next == "" {
				break
			}
			query = "?limit=2&after=" + pl.Next
		}
		if len(got) != 4 {
			t.Fatalf("paged walk returned %d pages: %v", len(got), got)
		}
		for i, rec := range []string{"http://a.com/", "http://a.com/p1", "http://a.com/p2", "http://b.org/x"} {
			if got[i] != rec {
				t.Fatalf("page %d = %q, want %q", i, got[i], rec)
			}
		}
	})

	t.Run("prefix", func(t *testing.T) {
		pl := listPage(t, ts.URL, "?prefix="+"http://a.com/")
		if pl.Count != 3 {
			t.Fatalf("prefix count %d, want 3 (%v)", pl.Count, pl.Pages)
		}
		// The prefix-equal URL itself must be included (ScanFrom alone
		// is strictly-after and would drop it).
		if pl.Pages[0].URL != "http://a.com/" {
			t.Fatalf("first page %q, want the prefix-equal URL", pl.Pages[0].URL)
		}
	})

	t.Run("prefix with resume", func(t *testing.T) {
		pl := listPage(t, ts.URL, "?limit=1&prefix=http://a.com/&after=http://a.com/")
		if pl.Count != 1 || pl.Pages[0].URL != "http://a.com/p1" {
			t.Fatalf("resumed prefix page %+v", pl.Pages)
		}
	})

	t.Run("bad limit", func(t *testing.T) {
		for _, q := range []string{"?limit=0", "?limit=-1", "?limit=x"} {
			resp, _ := get(t, ts.URL+"/v1/pages"+q, nil)
			if resp.StatusCode != 400 {
				t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
			}
		}
	})
}

func TestEstimates(t *testing.T) {
	t.Run("no source", func(t *testing.T) {
		ts, _ := newTestServer(t, Config{})
		resp, _ := get(t, ts.URL+"/v1/estimates/http://a.com/", nil)
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("status %d, want 501", resp.StatusCode)
		}
	})

	ts, _ := newTestServer(t, Config{Estimates: fakeEstimates{
		"http://a.com/": {URL: "http://a.com/", Estimator: "ep-irregular", RatePerDay: 0.25, Samples: 8, Changes: 2},
	}})
	t.Run("hit", func(t *testing.T) {
		resp, body := get(t, ts.URL+"/v1/estimates/http://a.com/", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var e Estimate
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.RatePerDay != 0.25 || e.Estimator != "ep-irregular" || e.Samples != 8 {
			t.Fatalf("estimate %+v", e)
		}
	})
	t.Run("miss", func(t *testing.T) {
		resp, _ := get(t, ts.URL+"/v1/estimates/http://a.com/unknown", nil)
		if resp.StatusCode != 404 {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})
}

func TestFreshness(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	t.Run("values match the freshness package", func(t *testing.T) {
		lambda, cycle := 0.5, 2.0
		resp, body := get(t, ts.URL+fmt.Sprintf("/v1/freshness?lambda=%g&cycle=%g&samples=5", lambda, cycle), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d (%s)", resp.StatusCode, body)
		}
		var rep FreshnessReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.SteadyInPlace-freshness.SteadyInPlace(lambda, cycle)) > 1e-12 ||
			math.Abs(rep.BatchShadow-freshness.BatchShadow(lambda, cycle, cycle)) > 1e-12 ||
			math.Abs(rep.AvgAgeDays-freshness.AvgAge(lambda, cycle)) > 1e-12 {
			t.Fatalf("report disagrees with the freshness package: %+v", rep)
		}
		if len(rep.BatchInPlaceCurve) != 5 {
			t.Fatalf("curve has %d samples, want 5", len(rep.BatchInPlaceCurve))
		}
		if last := rep.BatchInPlaceCurve[4]; last.T != cycle {
			t.Fatalf("curve ends at t=%g, want %g", last.T, cycle)
		}
	})

	t.Run("curves match the freshness package", func(t *testing.T) {
		lambda, cycle, crawl, samples := 0.7, 3.0, 1.25, 9
		resp, body := get(t, ts.URL+fmt.Sprintf("/v1/freshness?lambda=%g&cycle=%g&crawl=%g&samples=%d", lambda, cycle, crawl, samples), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d (%s)", resp.StatusCode, body)
		}
		var rep FreshnessReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]struct {
			got  []CurvePoint
			want func(t float64) float64
		}{
			"batch in-place":        {rep.BatchInPlaceCurve, func(t float64) float64 { return freshness.CurveBatchInPlace(lambda, cycle, crawl, t) }},
			"steady shadow crawler": {rep.SteadyShadowerCur, func(t float64) float64 { return freshness.CurveShadowCrawler(lambda, cycle, t) }},
			"steady shadow current": {rep.SteadyShadowCurve, func(t float64) float64 { return freshness.CurveShadowCurrent(lambda, cycle, t) }},
			"batch shadow crawler":  {rep.BatchShadowerCurve, func(t float64) float64 { return freshness.CurveBatchShadowCrawler(lambda, crawl, t) }},
			"batch shadow current":  {rep.BatchShadowCurve, func(t float64) float64 { return freshness.CurveBatchShadowCurrent(lambda, cycle, crawl, t) }},
		} {
			if len(c.got) != samples {
				t.Fatalf("%s: %d samples, want %d", name, len(c.got), samples)
			}
			for i, p := range c.got {
				if phase := cycle * float64(i) / float64(samples-1); p.T != phase || p.F != c.want(phase) {
					t.Errorf("%s: sample %d is (%g, %g), want (%g, %g)", name, i, p.T, p.F, phase, c.want(phase))
				}
			}
		}
	})

	t.Run("validation", func(t *testing.T) {
		for _, q := range []string{
			"", "?lambda=0.5", "?cycle=1", "?lambda=-1&cycle=1", "?lambda=x&cycle=1",
			"?lambda=0.5&cycle=0", "?lambda=0.5&cycle=1&crawl=2", "?lambda=0.5&cycle=1&samples=1",
		} {
			resp, _ := get(t, ts.URL+"/v1/freshness"+q, nil)
			if resp.StatusCode != 400 {
				t.Fatalf("%q: status %d, want 400", q, resp.StatusCode)
			}
		}
	})
}

func TestStatsAndHealthz(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	get(t, ts.URL+"/v1/pages/http://a.com/p1", nil) // one page hit
	resp, body = get(t, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Pages != 4 || st.PagesServed != 1 || st.Cache == nil {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheInvalidationOnSwap is the swap-coherence test: a page served
// (and cached) before a shadow swap must be served from the *new*
// collection afterwards — never a stale cache hit from the retired
// generation.
func TestCacheInvalidationOnSwap(t *testing.T) {
	ts, sh := newTestServer(t, Config{})
	page := ts.URL + "/v1/pages/http://a.com/p1"

	// Prime the cache: second read is a hit.
	get(t, page, nil)
	resp, body := get(t, page, nil)
	if resp.StatusCode != 200 || string(body) != "page one" {
		t.Fatalf("pre-swap: %d %q", resp.StatusCode, body)
	}

	// New generation with different content for the same URL.
	if err := sh.Shadow().Put(store.PageRecord{
		URL: "http://a.com/p1", Checksum: 0xff, FetchedAt: 9.0, Content: []byte("page one, revised"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Swap(); err != nil {
		t.Fatal(err)
	}

	resp, body = get(t, page, nil)
	if resp.StatusCode != 200 || string(body) != "page one, revised" {
		t.Fatalf("post-swap read not from new generation: %d %q", resp.StatusCode, body)
	}
	if et := resp.Header.Get("ETag"); et != `"ff"` {
		t.Fatalf("post-swap ETag %q, want new checksum", et)
	}
	// A pre-swap URL absent from the new generation is now a miss.
	resp, _ = get(t, ts.URL+"/v1/pages/http://a.com/p2", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("retired page served after swap: %d", resp.StatusCode)
	}

	// The flush shows up in the stats.
	_, body = get(t, ts.URL+"/v1/stats", nil)
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Invalidations < 1 {
		t.Fatalf("cache invalidations %d, want >= 1", st.Cache.Invalidations)
	}
	if st.Generation != 1 {
		t.Fatalf("generation %d, want 1", st.Generation)
	}
}

// TestServeAcrossLiveCrawl is the serving-plane stress test (run under
// -race by make ci): concurrent readers hammer every endpoint while a
// writer crawls into the shadow and swaps repeatedly. No request may
// ever observe a closed-collection error (500) — each request pins its
// generation (store.Shadowed.Pin), so swaps are invisible to readers.
func TestServeAcrossLiveCrawl(t *testing.T) {
	sh := store.NewShadowedMem()
	defer sh.Close()
	for _, rec := range testRecords {
		if err := sh.Current().Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(Config{Source: sh, CacheEntries: 64, Metrics: obs.NewRegistry()}))
	defer ts.Close()

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The crawler: write a fresh generation into the shadow, swap,
	// repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := 0; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < len(testRecords); i++ {
				rec := testRecords[i]
				rec.Checksum = uint64(gen)<<8 | uint64(i)
				rec.Content = []byte(fmt.Sprintf("gen %d page %d", gen, i))
				if err := sh.Shadow().Put(rec); err != nil {
					t.Errorf("shadow put: %v", err)
					return
				}
			}
			if _, err := sh.Swap(); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()

	paths := []string{
		"/v1/pages/http://a.com/p1",
		"/v1/pages/http://a.com/p1?meta=1",
		"/v1/pages?limit=2",
		"/v1/pages?prefix=http://a.com/",
		"/v1/stats",
		"/healthz",
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(r+i)%len(paths)]
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// 404 is legal (a read can land between swap and the next
				// generation containing the page — not here, every
				// generation has all pages, but keep the invariant tight):
				// what must never happen is a 5xx.
				if resp.StatusCode >= 500 {
					t.Errorf("reader %d: %s -> %d", r, p, resp.StatusCode)
					return
				}
			}
		}(r)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// heldSource is a Shadowed whose requests can be held between resolving
// their generation and reading anything: a request that pins a
// generation with a gate set parks until the test opens the gate.
type heldSource struct {
	*store.Shadowed
	mu      sync.Mutex
	gates   map[uint64]chan struct{}
	arrived chan struct{}
}

func (h *heldSource) Pin() (store.Reader, uint64, func()) {
	r, gen, release := h.Shadowed.Pin()
	h.mu.Lock()
	gate := h.gates[gen]
	h.mu.Unlock()
	if gate != nil {
		h.arrived <- struct{}{}
		<-gate
	}
	return r, gen, release
}

func (h *heldSource) setGate(gen uint64) chan struct{} {
	gate := make(chan struct{})
	h.mu.Lock()
	h.gates[gen] = gate
	h.mu.Unlock()
	return gate
}

// TestStragglersAcrossSwaps paces requests against swaps: in each of N
// rounds a group of readers resolves generation g and is held while the
// crawler publishes g+1 and a fresh request fills the cache under it;
// only then do the stragglers reach the cache and the store. Each must
// still be answered — 200, from generation g, whose collection its pin
// kept open — and must leave g+1's cache entry alone: the next g+1
// request hits, and N swaps cost at most N flushes.
func TestStragglersAcrossSwaps(t *testing.T) {
	const rounds, stragglers = 6, 4
	const page = "http://a.com/p1"
	src := &heldSource{Shadowed: store.NewShadowedMem(), gates: make(map[uint64]chan struct{}), arrived: make(chan struct{})}
	defer src.Close()
	content := func(gen uint64) string { return fmt.Sprintf("generation %d", gen) }
	fill := func(c store.Collection, gen uint64) {
		if err := c.Put(store.PageRecord{URL: page, Checksum: gen + 1, Content: []byte(content(gen))}); err != nil {
			t.Fatal(err)
		}
	}
	fill(src.Current(), 0)
	ts := httptest.NewServer(New(Config{Source: src, Metrics: obs.NewRegistry()}))
	defer ts.Close()
	stats := func() CacheStats {
		_, body := get(t, ts.URL+"/v1/stats", nil)
		var st Stats
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return *st.Cache
	}
	expect := func(resp *http.Response, body []byte, gen uint64) {
		t.Helper()
		if resp.StatusCode != 200 || resp.Header.Get("X-Webevolve-Generation") != fmt.Sprint(gen) || string(body) != content(gen) {
			t.Errorf("got %d, generation %s, %q; want 200 from generation %d", resp.StatusCode, resp.Header.Get("X-Webevolve-Generation"), body, gen)
		}
	}

	for gen := uint64(0); gen < rounds; gen++ {
		gate := src.setGate(gen)
		var wg sync.WaitGroup
		for i := 0; i < stragglers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/v1/pages/" + page)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				expect(resp, body, gen)
			}()
		}
		for i := 0; i < stragglers; i++ {
			<-src.arrived // every straggler holds its pin on gen
		}
		fill(src.Shadow(), gen+1)
		if _, err := src.Swap(); err != nil {
			t.Fatal(err)
		}
		resp, body := get(t, ts.URL+"/v1/pages/"+page, nil) // fills the cache under gen+1
		expect(resp, body, gen+1)
		close(gate)
		wg.Wait()
		before := stats()
		resp, body = get(t, ts.URL+"/v1/pages/"+page, nil)
		expect(resp, body, gen+1)
		if after := stats(); after.Hits != before.Hits+1 {
			t.Errorf("round %d: the stragglers cost generation %d its cache entry (hits %d -> %d)", gen, gen+1, before.Hits, after.Hits)
		}
	}
	if st := stats(); st.Invalidations > rounds {
		t.Errorf("%d swaps flushed the cache %d times", rounds, st.Invalidations)
	}
}

// TestStatsMatchesRegistry is the regression test for the /v1/stats
// migration onto the metrics registry: every counter the JSON endpoint
// reports must equal what a Prometheus scrape of the same registry
// shows — the two views are one set of counters, not parallel
// bookkeeping that can drift.
func TestStatsMatchesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	ts, _ := newTestServer(t, Config{Metrics: reg})

	page := ts.URL + "/v1/pages/http://a.com/p1"
	get(t, page, nil)                                        // miss + fill
	get(t, page, nil)                                        // cache hit
	get(t, page, map[string]string{"If-None-Match": `"a1"`}) // 304
	get(t, ts.URL+"/v1/pages/http://nowhere/", nil)          // 404

	_, body := get(t, ts.URL+"/v1/stats", nil)
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, want := range []string{
		fmt.Sprintf("webevolve_serve_requests_total %d", st.Requests),
		fmt.Sprintf("webevolve_serve_pages_served_total %d", st.PagesServed),
		fmt.Sprintf("webevolve_serve_not_modified_total %d", st.NotModified),
		fmt.Sprintf("webevolve_serve_cache_hits_total %d", st.Cache.Hits),
		fmt.Sprintf("webevolve_serve_cache_misses_total %d", st.Cache.Misses),
		fmt.Sprintf("webevolve_serve_cache_entries %d", st.Cache.Entries),
		`webevolve_serve_responses_total{status="200"}`,
		`webevolve_serve_responses_total{status="304"} 1`,
		`webevolve_serve_responses_total{status="404"} 1`,
	} {
		if !strings.Contains(expo, want+"\n") && !strings.Contains(expo, want+" ") {
			t.Errorf("exposition missing %q\n%s", want, expo)
		}
	}
	if st.Requests != 5 || st.PagesServed != 2 || st.NotModified != 1 {
		t.Errorf("stats counters %+v", st)
	}
	// Hits: the second p1 read and the conditional read (the 304 still
	// resolves the record); misses: first p1 read and the 404 probe.
	if st.Cache.Hits != 2 || st.Cache.Misses != 2 {
		t.Errorf("cache counters %+v", *st.Cache)
	}
}

// TestStaticSourceServesOneGeneration: Static hands out its reader at
// generation 0 on every view, and a server over it, reached through
// Handler, answers pages from that reader.
func TestStaticSourceServesOneGeneration(t *testing.T) {
	mem := store.NewMem()
	t.Cleanup(func() { mem.Close() })
	for _, rec := range testRecords {
		if err := mem.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	src := Static(mem)
	for i := 0; i < 2; i++ {
		if r, gen := src.View(); r != store.Reader(mem) || gen != 0 {
			t.Fatalf("view %d: reader %v at generation %d", i, r, gen)
		}
	}
	s := New(Config{Source: src, Metrics: obs.NewRegistry()})
	if h := s.Handler(); h != http.Handler(s) {
		t.Fatalf("Handler returned %T, not the server", h)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, rec := range testRecords {
		resp, body := get(t, ts.URL+"/v1/pages/"+rec.URL, nil)
		if resp.StatusCode != 200 || string(body) != string(rec.Content) {
			t.Fatalf("%s: status %d, body %q", rec.URL, resp.StatusCode, body)
		}
	}
}
