// Package serve is the serving plane: an HTTP read API over the
// crawled repository, built so the collection the crawler maintains
// (the write half of a WebBase-style system) is actually served to
// many concurrent readers — the paper's reason for keeping the
// collection fresh in the first place.
//
// The package depends only on store.Reader, the read-only half of the
// storage interface: the compiler proves the serving plane cannot
// write, delete, or close the repository it fronts. Swap-safety
// against a live shadow crawl comes from the Source abstraction — each
// request resolves the current reader and its generation once, pins
// that generation for as long as it reads the store when the Source can
// (store.Shadowed.Pin), and the bundled hot-set cache drops its entries
// whenever a newer generation shows up.
//
// Endpoints:
//
//	GET /v1/pages/{url}      page content + metadata headers; ?meta=1 for JSON metadata
//	GET /v1/pages            paged listing: ?prefix= &after= &limit=
//	GET /v1/estimates/{url}  change-frequency estimate (EP/EB), when a source is configured
//	GET /v1/freshness        Section-4 freshness/age curves: ?lambda= &cycle= [&crawl= &samples=]
//	GET /v1/stats            repository, cache and request counters
//	GET /healthz             liveness probe
//
// Page URLs ride in the request path verbatim (GET
// /v1/pages/http://host/a.html) or percent-encoded; a ?url= query
// parameter is also accepted. Responses carry an ETag derived from the
// stored content checksum, honoured by If-None-Match (and
// If-Modified-Since when the server knows the crawl epoch), so an
// unchanged page costs a 304 header exchange — the serving-side mirror
// of the crawler's own change detection.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"webevolve/internal/clock"
	"webevolve/internal/freshness"
	"webevolve/internal/obs"
	"webevolve/internal/store"
)

// Source yields the reader a request is served from, plus the
// generation it belongs to. The generation must increase whenever the
// underlying collection is atomically replaced (a shadow swap): it
// keys the hot-set cache and invalidates conditional-request state.
// *store.Shadowed implements Source directly (its View method); fixed
// collections wrap in Static.
//
// A Source that also has *store.Shadowed's Pin method is served through
// it: the request holds its generation open until it has finished
// reading, so a swap under it cannot close the collection it resolved.
// A View-only Source over a swapping collection keeps the window in
// which a swap fails the request with 500 "store: closed".
type Source interface {
	View() (store.Reader, uint64)
}

// pinner is the optional Source method, resolved once in New.
type pinner interface {
	Pin() (r store.Reader, gen uint64, release func())
}

// SourceFunc adapts a function to a Source.
type SourceFunc func() (store.Reader, uint64)

// View implements Source.
func (f SourceFunc) View() (store.Reader, uint64) { return f() }

// Static wraps a fixed reader as a Source with a constant generation —
// a finished crawl directory, or a storerd collection that is only
// ever appended to in place.
func Static(r store.Reader) Source {
	return SourceFunc(func() (store.Reader, uint64) { return r, 0 })
}

// Estimate is one page's change-frequency report, the serving-side
// face of the paper's Section 5.3 estimators.
type Estimate struct {
	URL string `json:"url"`
	// Estimator names the estimator that produced the rate (EP, EB,
	// naive).
	Estimator string `json:"estimator"`
	// RatePerDay is the estimated change rate lambda in changes/day.
	RatePerDay float64 `json:"ratePerDay"`
	// IntervalDays is the revisit interval the crawler derives from the
	// rate, when known.
	IntervalDays float64 `json:"intervalDays,omitempty"`
	// Samples and Changes summarize the observation history behind the
	// estimate.
	Samples int `json:"samples"`
	Changes int `json:"changes"`
	// LastVisitDay and NextDueDay are crawl-epoch days, when known.
	LastVisitDay float64 `json:"lastVisitDay,omitempty"`
	NextDueDay   float64 `json:"nextDueDay,omitempty"`
}

// EstimateSource resolves a page's change-frequency estimate; ok is
// false for unknown URLs.
type EstimateSource interface {
	Estimate(url string) (Estimate, bool)
}

// Config parameterizes a Server.
type Config struct {
	// Source resolves the reader per request (required).
	Source Source
	// Estimates backs /v1/estimates; nil serves 501 there.
	Estimates EstimateSource
	// Epoch anchors the repository's fractional-day timestamps to wall
	// time; when set, page responses carry Last-Modified and honour
	// If-Modified-Since. Zero disables both.
	Epoch time.Time
	// CacheEntries / CacheBytes bound the hot-set cache (defaults 4096
	// entries, 64 MiB). CacheEntries < 0 disables caching entirely.
	CacheEntries int
	CacheBytes   int64
	// Metrics receives the serving-plane metric families; nil uses the
	// process-wide obs.Default, so /v1/stats and the daemon's /metrics
	// endpoint report the same counters.
	Metrics *obs.Registry
}

// Server is the HTTP read API. It implements http.Handler itself —
// deliberately not via http.ServeMux, whose path cleaning would
// redirect the double slash in /v1/pages/http://host/… before the
// handler ever saw it.
type Server struct {
	// view resolves a request's reader and generation; the request calls
	// release once it has finished reading the store.
	view  func() (r store.Reader, gen uint64, release func())
	est   EstimateSource
	epoch time.Time
	cache *pageCache // nil: caching disabled

	start time.Time
	m     *serveMetrics
}

// New builds a Server. It panics on a nil Source: every endpoint needs
// one, and the zero Config is a programming error, not a runtime
// condition.
func New(cfg Config) *Server {
	if cfg.Source == nil {
		panic("serve: Config.Source is required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	view := func() (store.Reader, uint64, func()) {
		r, gen := cfg.Source.View()
		return r, gen, func() {}
	}
	if p, ok := cfg.Source.(pinner); ok {
		view = p.Pin
	}
	s := &Server{
		view:  view,
		est:   cfg.Estimates,
		epoch: cfg.Epoch,
		start: time.Now(),
		m:     newServeMetrics(reg),
	}
	if cfg.CacheEntries >= 0 {
		s.cache = newPageCache(cfg.CacheEntries, cfg.CacheBytes, s.m)
		// Residency gauges read the live cache at scrape time. Building
		// a second Server on the same registry rebinds them to the new
		// cache — the daemon runs one Server per process.
		reg.GaugeFunc("webevolve_serve_cache_entries",
			"resident hot-set cache entries", s.cache.residentEntries)
		reg.GaugeFunc("webevolve_serve_cache_bytes",
			"resident hot-set cache bytes", s.cache.residentBytes)
	}
	return s
}

// Handler returns the server as an http.Handler (it is one; the method
// reads better at call sites building an http.Server).
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler: count the request, route it, then
// record the status and wall time of the response that went out.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	s.route(sw, r)
	status := sw.status
	if status == 0 {
		status = http.StatusOK // implicit 200: body written with no WriteHeader
	}
	s.m.responses.With(strconv.Itoa(status)).Inc()
	s.m.seconds.Observe(time.Since(start).Seconds())
}

// route dispatches one request to its endpoint handler.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		s.error(w, http.StatusMethodNotAllowed, "only GET and HEAD are served")
		return
	}
	// Route on the escaped path: page URLs contain "//" and must not be
	// path-cleaned.
	p := r.URL.EscapedPath()
	switch {
	case p == "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case p == "/v1/stats":
		s.stats(w)
	case p == "/v1/pages":
		s.listPages(w, r)
	case strings.HasPrefix(p, "/v1/pages/"):
		s.getPage(w, r, strings.TrimPrefix(p, "/v1/pages/"))
	case p == "/v1/estimates" || strings.HasPrefix(p, "/v1/estimates/"):
		s.getEstimate(w, r, strings.TrimPrefix(strings.TrimPrefix(p, "/v1/estimates"), "/"))
	case p == "/v1/freshness":
		s.freshness(w, r)
	default:
		s.error(w, http.StatusNotFound, "no such endpoint")
	}
}

// error writes a JSON error body with the given status.
func (s *Server) error(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeJSON writes a 200 JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// pageURL resolves the page URL of a request: the ?url= query
// parameter when present, else the escaped path remainder,
// percent-decoded. An empty or undecodable URL is a client error.
func pageURL(r *http.Request, pathRest string) (string, error) {
	if q := r.URL.Query().Get("url"); q != "" {
		return q, nil
	}
	u, err := url.PathUnescape(pathRest)
	if err != nil {
		return "", fmt.Errorf("undecodable page URL %q: %v", pathRest, err)
	}
	if u == "" {
		return "", fmt.Errorf("empty page URL")
	}
	return u, nil
}

// etagFor derives the entity tag from the stored checksum — content-
// addressed, so the same bytes keep the same tag across swaps and even
// across backends.
func etagFor(rec store.PageRecord) string {
	return fmt.Sprintf("%q", strconv.FormatUint(rec.Checksum, 16))
}

// etagMatches reports whether an If-None-Match header value matches.
func etagMatches(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// lookup resolves one record through the cache.
func (s *Server) lookup(reader store.Reader, gen uint64, u string) (store.PageRecord, bool, error) {
	if s.cache != nil {
		if rec, ok := s.cache.get(gen, u); ok {
			return rec, true, nil
		}
	}
	rec, ok, err := reader.Get(u)
	if err != nil || !ok {
		return store.PageRecord{}, false, err
	}
	if s.cache != nil {
		s.cache.put(gen, u, rec)
	}
	return rec, true, nil
}

// getPage serves GET /v1/pages/{url}: the stored body with metadata in
// headers, or JSON metadata with ?meta=1. Conditional requests
// (If-None-Match on the checksum ETag; If-Modified-Since when the
// epoch is known) short-circuit to 304.
func (s *Server) getPage(w http.ResponseWriter, r *http.Request, pathRest string) {
	u, err := pageURL(r, pathRest)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	reader, gen, release := s.view()
	rec, ok, err := s.lookup(reader, gen, u)
	release()
	if err != nil {
		s.error(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		s.error(w, http.StatusNotFound, "page not in collection")
		return
	}

	etag := etagFor(rec)
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("X-Webevolve-Checksum", strconv.FormatUint(rec.Checksum, 16))
	h.Set("X-Webevolve-Fetched-Day", strconv.FormatFloat(rec.FetchedAt, 'g', -1, 64))
	h.Set("X-Webevolve-Links", strconv.Itoa(len(rec.Links)))
	h.Set("X-Webevolve-Generation", strconv.FormatUint(gen, 10))
	if rec.Importance != 0 {
		h.Set("X-Webevolve-Importance", strconv.FormatFloat(rec.Importance, 'g', -1, 64))
	}
	var lastMod time.Time
	if !s.epoch.IsZero() {
		lastMod = s.epoch.Add(clock.FromDays(rec.FetchedAt)).UTC().Truncate(time.Second)
		h.Set("Last-Modified", lastMod.Format(http.TimeFormat))
	}

	// If-None-Match wins over If-Modified-Since (RFC 9110 §13.1.3).
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if etagMatches(inm, etag) {
			s.m.notModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
	} else if ims := r.Header.Get("If-Modified-Since"); ims != "" && !lastMod.IsZero() {
		if t, terr := http.ParseTime(ims); terr == nil && !lastMod.After(t) {
			s.m.notModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}

	s.m.pagesServed.Inc()
	if r.URL.Query().Get("meta") != "" {
		s.writeJSON(w, s.meta(rec, gen))
		return
	}
	ct := "application/octet-stream"
	if len(rec.Content) > 0 {
		ct = http.DetectContentType(rec.Content)
	}
	h.Set("Content-Type", ct)
	h.Set("Content-Length", strconv.Itoa(len(rec.Content)))
	_, _ = w.Write(rec.Content)
}

// PageMeta is the JSON metadata shape shared by the single-page
// (?meta=1) and listing endpoints.
type PageMeta struct {
	URL          string  `json:"url"`
	ETag         string  `json:"etag"`
	Checksum     string  `json:"checksum"`
	FetchedAtDay float64 `json:"fetchedAtDay"`
	FetchedAt    string  `json:"fetchedAt,omitempty"`
	Version      int     `json:"version,omitempty"`
	Importance   float64 `json:"importance,omitempty"`
	ContentBytes int     `json:"contentBytes"`
	Links        int     `json:"links"`
	Generation   uint64  `json:"generation"`
}

// meta projects a record to its metadata.
func (s *Server) meta(rec store.PageRecord, gen uint64) PageMeta {
	m := PageMeta{
		URL:          rec.URL,
		ETag:         etagFor(rec),
		Checksum:     strconv.FormatUint(rec.Checksum, 16),
		FetchedAtDay: rec.FetchedAt,
		Version:      rec.Version,
		Importance:   rec.Importance,
		ContentBytes: len(rec.Content),
		Links:        len(rec.Links),
		Generation:   gen,
	}
	if !s.epoch.IsZero() {
		m.FetchedAt = s.epoch.Add(clock.FromDays(rec.FetchedAt)).UTC().Format(time.RFC3339)
	}
	return m
}

// listLimits bound the paged listing.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// PageList is the paged-listing response. Next, when set, is the
// ?after= cursor resuming strictly after the last returned page.
type PageList struct {
	Pages      []PageMeta `json:"pages"`
	Count      int        `json:"count"`
	Next       string     `json:"next,omitempty"`
	Generation uint64     `json:"generation"`
}

// listPages serves GET /v1/pages?prefix=&after=&limit=: a page of the
// sorted URL space, resumable with the returned cursor. The scan rides
// ScanFrom — a binary search for the cursor and one record read per row
// on both built-in backends — so a page costs what it returns, whatever
// the collection's size.
func (s *Server) listPages(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	prefix, after := q.Get("prefix"), q.Get("after")
	limit := defaultListLimit
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			s.error(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = min(n, maxListLimit)
	}

	reader, gen, release := s.view()
	defer release()
	out := PageList{Pages: make([]PageMeta, 0, min(limit, 64)), Generation: gen}
	more := false
	add := func(rec store.PageRecord) bool {
		if prefix != "" && !strings.HasPrefix(rec.URL, prefix) {
			// Sorted order: once past the prefix range nothing later
			// matches.
			return false
		}
		if len(out.Pages) == limit {
			more = true
			return false
		}
		out.Pages = append(out.Pages, s.meta(rec, gen))
		return true
	}

	start := after
	if prefix != "" && after < prefix {
		// ScanFrom is strictly-after, which would skip an exact
		// prefix-equal URL; probe it directly, then resume after it.
		if rec, ok, err := reader.Get(prefix); err != nil {
			s.error(w, http.StatusInternalServerError, err.Error())
			return
		} else if ok {
			add(rec)
		}
		start = prefix
	}
	if !more {
		if err := reader.ScanFrom(start, add); err != nil {
			s.error(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	out.Count = len(out.Pages)
	if more && out.Count > 0 {
		out.Next = out.Pages[out.Count-1].URL
	}
	s.writeJSON(w, out)
}

// getEstimate serves GET /v1/estimates/{url}.
func (s *Server) getEstimate(w http.ResponseWriter, r *http.Request, pathRest string) {
	if s.est == nil {
		s.error(w, http.StatusNotImplemented, "no estimate source configured (serve a crawl directory with change histories)")
		return
	}
	u, err := pageURL(r, pathRest)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	est, ok := s.est.Estimate(u)
	if !ok {
		s.error(w, http.StatusNotFound, "no change history for page")
		return
	}
	s.writeJSON(w, est)
}

// CurvePoint is one sample of a freshness curve: expected freshness F
// at cycle phase T (days).
type CurvePoint struct {
	T float64 `json:"t"`
	F float64 `json:"f"`
}

// FreshnessReport is the /v1/freshness response: the Section-4
// time-average freshness of the four design points for the given
// change rate, plus the within-cycle evolution curves of Figures 7-8
// and the expected age.
type FreshnessReport struct {
	Lambda  float64 `json:"lambda"`
	Cycle   float64 `json:"cycle"`
	Crawl   float64 `json:"crawl"`
	Samples int     `json:"samples"`

	// Time-average freshness per design point (Table 2 row/column).
	SteadyInPlace float64 `json:"steadyInPlace"`
	BatchInPlace  float64 `json:"batchInPlace"`
	SteadyShadow  float64 `json:"steadyShadow"`
	BatchShadow   float64 `json:"batchShadow"`
	// AvgAgeDays is the time-average age of a page revisited once per
	// cycle.
	AvgAgeDays float64 `json:"avgAgeDays"`

	// Evolution curves over one cycle.
	BatchInPlaceCurve  []CurvePoint `json:"batchInPlaceCurve"`
	SteadyShadowerCur  []CurvePoint `json:"steadyShadowCrawlerCurve"`
	SteadyShadowCurve  []CurvePoint `json:"steadyShadowCurrentCurve"`
	BatchShadowerCurve []CurvePoint `json:"batchShadowCrawlerCurve"`
	BatchShadowCurve   []CurvePoint `json:"batchShadowCurrentCurve"`
}

// freshness serves GET /v1/freshness?lambda=&cycle=[&crawl=&samples=]:
// the analytic freshness/age machinery of Section 4, exposed so a
// consumer of the collection can see what freshness the crawl policy
// buys at a given change rate.
func (s *Server) freshness(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	parse := func(name string) (float64, bool, error) {
		v := q.Get(name)
		if v == "" {
			return 0, false, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, false, fmt.Errorf("%s must be a number", name)
		}
		return f, true, nil
	}
	lambda, ok, err := parse("lambda")
	if err != nil || !ok || lambda < 0 {
		s.error(w, http.StatusBadRequest, "lambda (changes/day, >= 0) is required")
		return
	}
	cycle, ok, err := parse("cycle")
	if err != nil || !ok || cycle <= 0 {
		s.error(w, http.StatusBadRequest, "cycle (days, > 0) is required")
		return
	}
	crawl, ok, err := parse("crawl")
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	if !ok {
		crawl = cycle
	}
	if crawl <= 0 || crawl > cycle {
		s.error(w, http.StatusBadRequest, "crawl must be in (0, cycle]")
		return
	}
	samples := 65
	if v, ok, err := parse("samples"); err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	} else if ok {
		if v < 2 || v > 4096 {
			s.error(w, http.StatusBadRequest, "samples must be in [2, 4096]")
			return
		}
		samples = int(v)
	}

	curve := func(f func(t float64) float64) []CurvePoint {
		pts := make([]CurvePoint, samples)
		for i := range pts {
			t := cycle * float64(i) / float64(samples-1)
			pts[i] = CurvePoint{T: t, F: f(t)}
		}
		return pts
	}
	rep := FreshnessReport{
		Lambda:  lambda,
		Cycle:   cycle,
		Crawl:   crawl,
		Samples: samples,

		SteadyInPlace: freshness.SteadyInPlace(lambda, cycle),
		BatchInPlace:  freshness.BatchInPlace(lambda, cycle),
		SteadyShadow:  freshness.SteadyShadow(lambda, cycle),
		BatchShadow:   freshness.BatchShadow(lambda, cycle, crawl),
		AvgAgeDays:    freshness.AvgAge(lambda, cycle),

		BatchInPlaceCurve: curve(func(t float64) float64 {
			return freshness.CurveBatchInPlace(lambda, cycle, crawl, t)
		}),
		SteadyShadowerCur: curve(func(t float64) float64 {
			return freshness.CurveShadowCrawler(lambda, cycle, t)
		}),
		SteadyShadowCurve: curve(func(t float64) float64 {
			return freshness.CurveShadowCurrent(lambda, cycle, t)
		}),
		BatchShadowerCurve: curve(func(t float64) float64 {
			return freshness.CurveBatchShadowCrawler(lambda, crawl, t)
		}),
		BatchShadowCurve: curve(func(t float64) float64 {
			return freshness.CurveBatchShadowCurrent(lambda, cycle, crawl, t)
		}),
	}
	s.writeJSON(w, rep)
}

// Stats is the /v1/stats response.
type Stats struct {
	Pages         int         `json:"pages"`
	Generation    uint64      `json:"generation"`
	UptimeSeconds float64     `json:"uptimeSeconds"`
	Requests      int64       `json:"requests"`
	PagesServed   int64       `json:"pagesServed"`
	NotModified   int64       `json:"notModified"`
	Estimates     bool        `json:"estimates"`
	Cache         *CacheStats `json:"cache,omitempty"`
}

// stats serves GET /v1/stats.
func (s *Server) stats(w http.ResponseWriter) {
	reader, gen, release := s.view()
	pages := reader.Len()
	release()
	st := Stats{
		Pages:         pages,
		Generation:    gen,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.m.requests.Value(),
		PagesServed:   s.m.pagesServed.Value(),
		NotModified:   s.m.notModified.Value(),
		Estimates:     s.est != nil,
	}
	if s.cache != nil {
		cs := s.cache.stats()
		st.Cache = &cs
	}
	s.writeJSON(w, st)
}
