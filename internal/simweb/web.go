package simweb

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"webevolve/internal/webgraph"
)

// ErrNotFound reports a fetch of a URL that does not exist (or no longer
// exists) in the simulated web. A crawler sees it as a 404.
var ErrNotFound = errors.New("simweb: page not found")

// Web is a deterministic simulated evolving web.
type Web struct {
	cfg    Config
	sites  []*Site
	byHost map[string]*Site

	// popCum are cumulative popularity weights indexed by popularity
	// rank; popToSite maps popularity rank -> site index.
	popCum    []float64
	popToSite []int
}

// New builds a synthetic web from the configuration. Day 0 is the start
// of the simulation; pages alive at day 0 have memoryless residual
// lifespans (exponential), matching an observation window opening on an
// already-evolving web.
func New(cfg Config) (*Web, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	w := &Web{cfg: cfg, byHost: make(map[string]*Site)}

	// Create sites in deterministic domain order.
	for _, d := range Domains {
		n := cfg.SitesPerDomain[d]
		for i := 0; i < n; i++ {
			host := hostFor(d, i, n)
			s := &Site{
				web:          w,
				index:        len(w.sites),
				host:         host,
				root:         "http://" + host + "/",
				domain:       d,
				byURL:        make(map[string]*Page),
				lifespanMean: cfg.LifespanMeanDays[d],
			}
			mix := cfg.Mixtures[d]
			s.mixCum = make([]float64, len(mix))
			var cum float64
			for j, c := range mix {
				cum += c.Weight
				s.mixCum[j] = cum
			}
			w.sites = append(w.sites, s)
			w.byHost[s.host] = s
		}
	}

	// Assign intrinsic popularity: a seeded permutation of sites, with
	// Zipf-like weights over ranks. Cross links are drawn from this
	// distribution, so site-level PageRank recovers the ordering.
	wr := newRNG(cfg.Seed, 0xdeadbeef)
	perm := make([]int, len(w.sites))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := wr.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	w.popToSite = perm
	w.popCum = make([]float64, len(perm))
	var cum float64
	for r := range perm {
		cum += 1 / math.Pow(float64(r+1), cfg.PopularitySkew)
		w.popCum[r] = cum
		w.sites[perm[r]].popRank = r
	}

	// Populate windows at day 0.
	for _, s := range w.sites {
		s.pages = make([]*Page, 0, cfg.PagesPerSite)
		for slot := 0; slot < cfg.PagesPerSite; slot++ {
			s.pages = append(s.pages, nil) // placeholder so len() is final
		}
		for slot := 0; slot < cfg.PagesPerSite; slot++ {
			s.pages[slot] = s.newPage(slot, 0)
		}
	}
	return w, nil
}

// hostFor names site i of n in a domain group, reproducing Table 1's
// sub-splits: netorg = 19 org + 11 net, gov = 28 gov + 2 mil (scaled
// proportionally for other n).
func hostFor(d Domain, i, n int) string {
	switch d {
	case Com:
		return fmt.Sprintf("site%03d.com", i)
	case Edu:
		return fmt.Sprintf("univ%03d.edu", i)
	case NetOrg:
		orgs := (n*19 + 15) / 30 // round(n*19/30)
		if i < orgs {
			return fmt.Sprintf("group%03d.org", i)
		}
		return fmt.Sprintf("isp%03d.net", i)
	case Gov:
		mils := (n*2 + 15) / 30 // round(n*2/30)
		if i < mils {
			return fmt.Sprintf("base%03d.mil", i)
		}
		return fmt.Sprintf("agency%03d.gov", i)
	default:
		return fmt.Sprintf("other%03d.example", i)
	}
}

// sampleSite draws a site index with the popularity skew.
func (w *Web) sampleSite(r *rng) int {
	u := r.float64() * w.popCum[len(w.popCum)-1]
	rank := sort.SearchFloat64s(w.popCum, u)
	if rank >= len(w.popToSite) {
		rank = len(w.popToSite) - 1
	}
	return w.popToSite[rank]
}

// Config returns the web's effective configuration.
func (w *Web) Config() Config { return w.cfg }

// Sites returns all sites in creation order.
func (w *Web) Sites() []*Site { return w.sites }

// SiteByHost looks up a site.
func (w *Web) SiteByHost(host string) (*Site, bool) {
	s, ok := w.byHost[host]
	return s, ok
}

// NumPages returns the total number of window slots across all sites.
func (w *Web) NumPages() int {
	n := 0
	for _, s := range w.sites {
		n += len(s.pages)
	}
	return n
}

// Fetch retrieves the page at url as of the given day, with rendered
// HTML. It returns ErrNotFound for URLs that never existed, are not yet
// born, or have died.
func (w *Web) Fetch(url string, day float64) (Snapshot, error) {
	return w.fetch(url, day, true)
}

// FetchMeta is Fetch without HTML rendering: the links and checksum are
// returned but no content is generated. The daily monitoring experiment
// uses it to replay 100M+ fetches quickly.
func (w *Web) FetchMeta(url string, day float64) (Snapshot, error) {
	return w.fetch(url, day, false)
}

func (w *Web) fetch(url string, day float64, withHTML bool) (Snapshot, error) {
	host := webgraph.SiteOf(url)
	s, ok := w.byHost[host]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: unknown host %q", ErrNotFound, host)
	}
	s.advanceTo(day)
	p, ok := s.byURL[url]
	if !ok || !p.aliveAt(day) {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	p.advanceTo(day)
	return p.snapshot(day, withHTML), nil
}

// PageOracle exposes ground truth about a page for estimator evaluation:
// its true change rate and version at the given day.
func (w *Web) PageOracle(url string, day float64) (rate float64, version int, err error) {
	host := webgraph.SiteOf(url)
	s, ok := w.byHost[host]
	if !ok {
		return 0, 0, ErrNotFound
	}
	s.advanceTo(day)
	p, ok := s.byURL[url]
	if !ok {
		return 0, 0, ErrNotFound
	}
	p.advanceTo(math.Min(day, p.deathDay))
	return p.ratePerDay, p.version, nil
}

// BuildGraph snapshots the live link structure of the whole web at the
// given day into a page-level graph (used by ranking experiments and the
// crawler's RankingModule tests).
func (w *Web) BuildGraph(day float64) *webgraph.Graph {
	g := webgraph.New()
	for _, s := range w.sites {
		s.advanceTo(day)
		for _, p := range s.pages {
			if !p.aliveAt(day) {
				continue
			}
			g.AddPage(p.url)
			for _, l := range s.linksOf(p) {
				g.AddLink(p.url, l)
			}
		}
	}
	return g
}

// SiteGraph builds the site-level hypergraph of Section 2.2 directly from
// the cross-link structure at the given day.
func (w *Web) SiteGraph(day float64) *webgraph.SiteGraph {
	return webgraph.ProjectSites(w.BuildGraph(day))
}

// RootURLs returns every site's root URL; these are the seed URLs for
// crawls of the simulated web.
func (w *Web) RootURLs() []string {
	out := make([]string, 0, len(w.sites))
	for _, s := range w.sites {
		out = append(out, s.RootURL())
	}
	return out
}

// DomainOf returns the domain group of a URL's site, or false when the
// host is unknown.
func (w *Web) DomainOf(url string) (Domain, bool) {
	s, ok := w.byHost[webgraph.SiteOf(url)]
	if !ok {
		return "", false
	}
	return s.domain, true
}
