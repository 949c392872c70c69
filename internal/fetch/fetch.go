// Package fetch abstracts page retrieval behind one interface with two
// implementations: SimFetcher reads the deterministic synthetic web
// (every experiment in this repository runs on it), and HTTPFetcher is a
// real polite HTTP client so the same crawler code can run against live
// sites. The CrawlModule of Figure 12 is a consumer of this package.
package fetch

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"webevolve/internal/simweb"
	"webevolve/internal/webgraph"
)

// Result is the outcome of one fetch.
type Result struct {
	URL string
	// Day is the fetch time in days since the crawl epoch.
	Day float64
	// NotFound reports a 404/410 or a vanished simulated page; the other
	// fields are zero when set. A missing page is a normal crawl outcome,
	// not an error.
	NotFound bool
	// Checksum is the content checksum used for change detection.
	Checksum uint64
	// Version is the content version for simulated pages (oracle-free
	// crawlers ignore it; tests use it).
	Version int
	// Links are the absolute out-link URLs extracted from the content.
	Links []string
	// Content is the page body when content fetching is enabled. The
	// caller owns it: no fetcher keeps or reuses it.
	Content []byte
	// Size is the content size in bytes (set even when Content is nil).
	Size int
}

// Fetcher retrieves pages. Implementations must be safe for concurrent
// use: the paper notes "multiple CrawlModules may run in parallel".
type Fetcher interface {
	// Fetch retrieves url at the given crawl-time (days since epoch).
	// Simulated fetchers use day as the virtual instant; live fetchers
	// may ignore it.
	Fetch(url string, day float64) (Result, error)
}

// Checksum64 hashes content for change detection.
func Checksum64(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// SimFetcher serves fetches from a simulated web.
type SimFetcher struct {
	web *simweb.Web
	// WithContent controls whether HTML bodies are rendered; experiments
	// that need only checksums leave it false for speed.
	WithContent bool

	fetches  atomic.Int64
	notFound atomic.Int64

	// locks serializes fetches per site: simweb advances page state
	// lazily on fetch, which mutates only the fetched site (cross-site
	// reads touch nothing but immutable fields), so one lock per site
	// lets zero-latency simulated crawls scale with workers instead of
	// funnelling every site through a single mutex. The crawl engines
	// already keep same-site fetches on one worker (shard affinity /
	// shard claims), so per-site contention is the rare case, not the
	// common one.
	locks map[string]*sync.Mutex
	// unknown serializes fetches of hosts outside the web (no site
	// state is advanced, but the lookup result must not race a future
	// simweb mutation; one shared lock keeps the invariant cheap).
	unknown sync.Mutex
}

// NewSimFetcher wraps a simulated web.
func NewSimFetcher(w *simweb.Web) *SimFetcher {
	locks := make(map[string]*sync.Mutex)
	for _, s := range w.Sites() {
		locks[s.Host()] = &sync.Mutex{}
	}
	return &SimFetcher{web: w, locks: locks}
}

// lockFor returns the mutex guarding url's site.
func (f *SimFetcher) lockFor(url string) *sync.Mutex {
	if mu, ok := f.locks[webgraph.SiteOf(url)]; ok {
		return mu
	}
	return &f.unknown
}

// Fetch implements Fetcher.
func (f *SimFetcher) Fetch(url string, day float64) (Result, error) {
	mu := f.lockFor(url)
	mu.Lock()
	var snap simweb.Snapshot
	var err error
	if f.WithContent {
		snap, err = f.web.Fetch(url, day)
	} else {
		snap, err = f.web.FetchMeta(url, day)
	}
	mu.Unlock()
	f.fetches.Add(1)
	if err != nil {
		if errors.Is(err, simweb.ErrNotFound) {
			f.notFound.Add(1)
			return Result{URL: url, Day: day, NotFound: true}, nil
		}
		return Result{}, err
	}
	// The snapshot's links and body were built for this fetch alone, so
	// they pass to the caller as they are: no copy.
	return Result{
		URL:      url,
		Day:      day,
		Checksum: snap.Checksum,
		Version:  snap.Version,
		Links:    snap.Links,
		Content:  snap.Body,
		Size:     snap.Size,
	}, nil
}

// Fetches returns the total fetch count (including not-found).
func (f *SimFetcher) Fetches() int64 { return f.fetches.Load() }

// NotFoundCount returns how many fetches hit missing pages.
func (f *SimFetcher) NotFoundCount() int64 { return f.notFound.Load() }

// Web exposes the underlying simulated web (oracle access for tests).
func (f *SimFetcher) Web() *simweb.Web { return f.web }
