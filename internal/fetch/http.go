package fetch

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"webevolve/internal/clock"
	"webevolve/internal/htmlparse"
	"webevolve/internal/robots"
)

// HTTPFetcher is a polite live-web fetcher: it honours robots.txt, spaces
// requests to one host by the politeness delay (the paper's experiment
// used 10 seconds) and optionally restricts crawling to a night window.
// The spacing runs from the moment the previous request to the host
// has been answered, so a caller that fetches one host at a time gets
// page requests that start at least the delay apart, however long a
// request or the robots.txt check before it took. It is the crawl's
// only per-host gate.
type HTTPFetcher struct {
	// Client is the underlying HTTP client; http.DefaultClient when nil.
	Client *http.Client
	// UserAgent identifies the crawler; a default is used when empty.
	UserAgent string
	// Politeness is the per-site access policy.
	Politeness robots.Politeness
	// Clock provides time (and allows virtual-time tests). Wall clock
	// when nil.
	Clock clock.Clock
	// Epoch anchors Result.Day: day 0 is this instant. Set once before
	// first use; defaults to the first fetch's time.
	Epoch time.Time
	// MaxBodyBytes caps how much of a response body is read (default
	// 2 MiB).
	MaxBodyBytes int64
	// SkipRobots disables robots.txt checking (tests).
	SkipRobots bool

	mu        sync.Mutex
	lastByKey map[string]time.Time
	robotsBy  map[string]*robots.Rules
	epochSet  bool
}

const defaultUserAgent = "webevolve-crawler/1.0 (research reproduction)"

func (f *HTTPFetcher) clock() clock.Clock {
	if f.Clock != nil {
		return f.Clock
	}
	return clock.Wall{}
}

func (f *HTTPFetcher) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return http.DefaultClient
}

func (f *HTTPFetcher) userAgent() string {
	if f.UserAgent != "" {
		return f.UserAgent
	}
	return defaultUserAgent
}

// Fetch implements Fetcher. The day argument is ignored: live time comes
// from the fetcher's clock.
func (f *HTTPFetcher) Fetch(rawURL string, _ float64) (Result, error) {
	return f.FetchContext(context.Background(), rawURL)
}

// FetchContext fetches with a context.
func (f *HTTPFetcher) FetchContext(ctx context.Context, rawURL string) (Result, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return Result{}, fmt.Errorf("fetch: bad url %q: %w", rawURL, err)
	}
	now := f.waitTurn(u.Host)
	f.mu.Lock()
	if !f.epochSet {
		if f.Epoch.IsZero() {
			f.Epoch = now
		}
		f.epochSet = true
	}
	epoch := f.Epoch
	f.mu.Unlock()

	if !f.SkipRobots {
		ok, err := f.allowed(ctx, u)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			return Result{URL: rawURL, Day: clock.Days(now.Sub(epoch)), NotFound: true}, nil
		}
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return Result{}, fmt.Errorf("fetch: %w", err)
	}
	req.Header.Set("User-Agent", f.userAgent())
	resp, err := f.client().Do(req)
	f.answered(u.Host)
	if err != nil {
		return Result{}, fmt.Errorf("fetch: %w", err)
	}
	defer resp.Body.Close()

	day := clock.Days(now.Sub(epoch))
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusGone {
		return Result{URL: rawURL, Day: day, NotFound: true}, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return Result{}, fmt.Errorf("fetch: %s: status %d", rawURL, resp.StatusCode)
	}
	limit := f.MaxBodyBytes
	if limit <= 0 {
		limit = 2 << 20
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return Result{}, fmt.Errorf("fetch: reading %s: %w", rawURL, err)
	}
	res := Result{
		URL:      rawURL,
		Day:      day,
		Checksum: Checksum64(body),
		Content:  body,
		Size:     len(body),
	}
	ct := resp.Header.Get("Content-Type")
	if ct == "" || strings.Contains(ct, "html") {
		res.Links = htmlparse.Links(rawURL, string(body))
	}
	return res, nil
}

// waitTurn blocks until the politeness policy admits a request to host,
// then records the request time and returns it.
func (f *HTTPFetcher) waitTurn(host string) time.Time {
	c := f.clock()
	f.mu.Lock()
	if f.lastByKey == nil {
		f.lastByKey = make(map[string]time.Time)
	}
	last := f.lastByKey[host]
	now := c.Now()
	next := f.Politeness.NextAllowed(now, last)
	f.lastByKey[host] = next
	f.mu.Unlock()
	if d := next.Sub(now); d > 0 {
		c.Sleep(d)
	}
	return next
}

// answered moves host's last-request time up to now, after a request to
// it has returned: the next request waits out the delay from here, and
// this request certainly started before now.
func (f *HTTPFetcher) answered(host string) {
	now := f.clock().Now()
	f.mu.Lock()
	if now.After(f.lastByKey[host]) {
		f.lastByKey[host] = now
	}
	f.mu.Unlock()
}

// allowed consults (and caches) robots.txt for the URL's host.
func (f *HTTPFetcher) allowed(ctx context.Context, u *url.URL) (bool, error) {
	f.mu.Lock()
	if f.robotsBy == nil {
		f.robotsBy = make(map[string]*robots.Rules)
	}
	rules, ok := f.robotsBy[u.Host]
	f.mu.Unlock()
	if !ok {
		robotsURL := u.Scheme + "://" + u.Host + "/robots.txt"
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, robotsURL, nil)
		if err != nil {
			return false, fmt.Errorf("fetch: %w", err)
		}
		req.Header.Set("User-Agent", f.userAgent())
		resp, err := f.client().Do(req)
		if err != nil {
			// Unreachable robots.txt: be conservative but do not wedge the
			// crawl; treat as allow-all, the common convention.
			rules = robots.Parse("", f.userAgent())
		} else {
			func() {
				defer resp.Body.Close()
				if resp.StatusCode >= 200 && resp.StatusCode < 300 {
					body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
					rules = robots.Parse(string(body), f.userAgent())
				} else {
					rules = robots.Parse("", f.userAgent())
				}
			}()
		}
		f.mu.Lock()
		f.robotsBy[u.Host] = rules
		f.mu.Unlock()
	}
	return rules.Allowed(u.Path), nil
}
