package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"webevolve/internal/store"
)

// smokeSite is the site scripts/serve_smoke.sh crawls: the root (also
// reachable as /index.html, the seed's second spelling) links to a and
// b, both link to c, and c fans out to 35 leaves — 40 URLs over three
// link levels. With leafHost set, c links its even leaves on that host
// instead.
func smokeSite(leafHost string) map[string]string {
	index := `<html><body><a href="/a.html">a</a> <a href="/b.html">b</a></body></html>`
	site := map[string]string{
		"/":           index,
		"/index.html": index,
		"/a.html":     `<html><body><a href="/c.html">c</a> <a href="/index.html">home</a></body></html>`,
		"/b.html":     `<html><body><a href="/c.html">c</a></body></html>`,
	}
	var c strings.Builder
	c.WriteString("<html><body>\n")
	for i := 1; i <= 35; i++ {
		site[fmt.Sprintf("/p%02d.html", i)] = fmt.Sprintf("<html><body>leaf %02d</body></html>", i)
		host := ""
		if i%2 == 0 {
			host = leafHost
		}
		fmt.Fprintf(&c, "<a href=\"%s/p%02d.html\">p%02d</a>\n", host, i, i)
	}
	c.WriteString("</body></html>\n")
	site["/c.html"] = c.String()
	return site
}

// serveSite serves pages by path; anything else (robots.txt included)
// is a 404. Page answers take pageDelay, the robots.txt answer
// robotsDelay.
func serveSite(t *testing.T, site map[string]string, pageDelay, robotsDelay time.Duration) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/robots.txt" {
			time.Sleep(robotsDelay)
		}
		body, ok := site[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		time.Sleep(pageDelay)
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func testOpts(t *testing.T, seeds string, workers int, delay time.Duration, out io.Writer) crawlOpts {
	seedList, err := parseSeeds(seeds)
	if err != nil {
		t.Fatal(err)
	}
	return crawlOpts{
		seeds: seedList, dir: t.TempDir(), maxPages: 40, delay: delay, sameSite: true,
		workers: workers, content: true, out: out,
	}
}

// dumpCollection lists a crawl directory's stored pages: URL, checksum
// and body, in URL order.
func dumpCollection(t *testing.T, dir string) string {
	disk, err := store.OpenDisk(filepath.Join(dir, "pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	var b strings.Builder
	if err := disk.Scan(func(rec store.PageRecord) bool {
		fmt.Fprintf(&b, "%s %016x %q\n", rec.URL, rec.Checksum, rec.Content)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCrawlIdenticalAtAnyWorkerCount: on a fresh directory, a pass over
// the smoke site prints the same report and stores the same collection
// at one worker and at four. A second pass over the same directory finds
// nothing due. The site is crawled as serve_smoke serves it, on one
// host, and with half its leaves on a second host, whose fetches run on
// another worker and finish in any order.
func TestCrawlIdenticalAtAnyWorkerCount(t *testing.T) {
	leaves := serveSite(t, smokeSite(""), 0, 0)
	for _, leafHost := range []string{"", leaves.URL} {
		srv := serveSite(t, smokeSite(leafHost), 0, 0)
		seeds := srv.URL + "/," + strings.ToUpper(srv.URL[:4]) + srv.URL[4:]
		var outs, colls [2]string
		for i, workers := range []int{1, 4} {
			var out bytes.Buffer
			o := testOpts(t, seeds, workers, time.Millisecond, &out)
			o.sameSite = leafHost == ""
			if err := run(o); err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			outs[i], colls[i] = out.String(), dumpCollection(t, o.dir)
			if !strings.HasSuffix(outs[i], "fetched 40 pages; collection holds 40\n") {
				t.Fatalf("%d workers: the pass did not crawl the whole site:\n%s", workers, outs[i])
			}
			out.Reset()
			if err := run(o); err != nil {
				t.Fatalf("%d workers, second pass: %v", workers, err)
			}
			if got := out.String(); got != "fetched 0 pages; collection holds 40\n" {
				t.Fatalf("%d workers: second pass over a fresh crawl:\n%s", workers, got)
			}
		}
		if outs[0] != outs[1] {
			t.Fatalf("report differs between 1 and 4 workers:\n--- 1\n%s--- 4\n%s", outs[0], outs[1])
		}
		if colls[0] != colls[1] {
			t.Fatalf("collection differs between 1 and 4 workers:\n--- 1\n%s--- 4\n%s", colls[0], colls[1])
		}
	}
}

// request is one HTTP request as the fetcher's RoundTripper saw it:
// from the call until its response body was closed.
type request struct {
	host, path string
	start, end time.Time
}

// recordingTransport records every request the fetcher sends, and
// whether any host ever had two requests in flight at once. It sends
// them on next, or on http.DefaultTransport when next is nil.
type recordingTransport struct {
	next     http.RoundTripper
	mu       sync.Mutex
	reqs     []*request
	inflight map[string]int
	overlap  string // a host that had two requests in flight
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := &request{host: req.URL.Host, path: req.URL.Path}
	rt.mu.Lock()
	r.start = time.Now()
	rt.reqs = append(rt.reqs, r)
	if rt.inflight[r.host]++; rt.inflight[r.host] > 1 {
		rt.overlap = r.host
	}
	rt.mu.Unlock()
	next := rt.next
	if next == nil {
		next = http.DefaultTransport
	}
	resp, err := next.RoundTrip(req)
	if err != nil {
		rt.finish(r)
		return nil, err
	}
	resp.Body = &finishOnClose{ReadCloser: resp.Body, finish: func() { rt.finish(r) }}
	return resp, nil
}

func (rt *recordingTransport) finish(r *request) {
	rt.mu.Lock()
	r.end = time.Now()
	rt.inflight[r.host]--
	rt.mu.Unlock()
}

type finishOnClose struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *finishOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.finish)
	return err
}

// TestPolitenessPerHost: four workers crawl two hosts at once with a
// 50 ms delay. No host may ever have two requests in flight, and
// consecutive page requests to one host (robots.txt aside) must start
// at least the delay apart, timed where the fetcher hands them to its
// transport. Host a answers pages slower than the delay, so two of its
// requests sent one delay apart would overlap; host b answers
// robots.txt slowly, so spacing counted from a request's turn rather
// than from its answer would start b's second page request early.
func TestPolitenessPerHost(t *testing.T) {
	const delay = 50 * time.Millisecond
	site := map[string]string{}
	var index strings.Builder
	for i := 1; i <= 7; i++ {
		site[fmt.Sprintf("/p%d.html", i)] = fmt.Sprintf("<html><body>page %d</body></html>", i)
		fmt.Fprintf(&index, "<a href=\"/p%d.html\">p%d</a>\n", i, i)
	}
	site["/"] = "<html><body>" + index.String() + "</body></html>"
	a, b := serveSite(t, site, 60*time.Millisecond, 0), serveSite(t, site, 0, 30*time.Millisecond)

	rt := &recordingTransport{inflight: map[string]int{}}
	var out bytes.Buffer
	o := testOpts(t, a.URL+"/,"+b.URL+"/", 4, delay, &out)
	o.client = &http.Client{Transport: rt}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "fetched 16 pages; collection holds 16\n") {
		t.Fatalf("the pass did not crawl both sites:\n%s", out.String())
	}
	if rt.overlap != "" {
		t.Fatalf("host %s had two requests in flight", rt.overlap)
	}
	byHost := map[string][]*request{}
	for _, r := range rt.reqs {
		if r.path != "/robots.txt" {
			byHost[r.host] = append(byHost[r.host], r)
		}
	}
	if len(byHost) != 2 {
		t.Fatalf("page requests went to %d hosts, want 2", len(byHost))
	}
	for host, reqs := range byHost {
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].start.Before(reqs[j].start) })
		for i := 1; i < len(reqs); i++ {
			if gap := reqs[i].start.Sub(reqs[i-1].start); gap < delay {
				t.Fatalf("%s: %s started %v after %s, want at least %v", host, reqs[i].path, gap, reqs[i-1].path, delay)
			}
		}
	}
}

// TestRoundsSpanSites: a round takes one URL of every site with one due,
// so a small site's pages do not wait behind a large site's backlog.
// Host a.test links 80 pages and sorts first, b.test links 4; with both
// indexes fetched in the first round, b.test's pages go out in rounds
// two to five, each beside one of a.test's. Rounds are barriers, so
// b.test's last page request starts before a.test's sixth page request
// at any timing.
func TestRoundsSpanSites(t *testing.T) {
	siteOf := func(n int) map[string]string {
		site := map[string]string{}
		var index strings.Builder
		for i := 1; i <= n; i++ {
			site[fmt.Sprintf("/p%02d.html", i)] = fmt.Sprintf("<html><body>page %d</body></html>", i)
			fmt.Fprintf(&index, "<a href=\"/p%02d.html\">p%02d</a>\n", i, i)
		}
		site["/"] = "<html><body>" + index.String() + "</body></html>"
		return site
	}
	addrs := map[string]string{
		"a.test:80": serveSite(t, siteOf(80), 0, 0).Listener.Addr().String(),
		"b.test:80": serveSite(t, siteOf(4), 0, 0).Listener.Addr().String(),
	}
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, network, addrs[addr])
	}
	rt := &recordingTransport{next: &http.Transport{DialContext: dial}, inflight: map[string]int{}}
	var out bytes.Buffer
	o := testOpts(t, "http://a.test/,http://b.test/", 4, time.Millisecond, &out)
	o.maxPages = 100
	o.client = &http.Client{Transport: rt}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "fetched 86 pages; collection holds 86\n") {
		t.Fatalf("the pass did not crawl both sites:\n%s", out.String())
	}
	var a, b []*request
	for _, r := range rt.reqs {
		switch {
		case r.path == "/robots.txt":
		case r.host == "a.test":
			a = append(a, r)
		default:
			b = append(b, r)
		}
	}
	if last := b[len(b)-1]; !last.start.Before(a[5].start) {
		t.Fatalf("b.test's last page %s started after a.test's sixth page request %s", last.path, a[5].path)
	}
}

// TestParseSeeds: empty entries are skipped, a seed must be an absolute
// http(s) URL, and a list with no seed left is refused.
func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds(" http://H.example/ , HTTPS://h.example/a#frag,")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://h.example/", "https://h.example/a"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("seeds %q, want %q", got, want)
	}
	for _, bad := range []string{"", ",", " , ", "http://h/,h.example/", "ftp://h.example/", "/index.html", "http:///x"} {
		if seeds, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) = %q, want an error", bad, seeds)
		}
	}
}
