package core

import (
	"webevolve/internal/changefreq"
	"webevolve/internal/webgraph"
)

// Site-level change statistics (Section 5.3): "it is also possible to
// keep update statistics on larger units than a page, such as a web site
// or a directory ... the crawler may get a tighter confidence interval,
// because the frequency is estimated on a larger number of pages".
//
// When Config.SiteLevelStats is on, the crawler pools every page's change
// history into its site's aggregate and uses the pooled EP estimate as
// the working rate for pages whose own history is still too short
// (fewer than SiteStatsMinSamples intervals). Pages with enough history
// use their own estimate — the hybrid sidesteps the paper's caveat that
// a site average misleads when pages on the site change at very
// different rates, because the per-page signal takes over as soon as it
// is informative.

// siteStats maintains per-site pooled aggregates.
type siteStats struct {
	bySite map[string]*changefreq.SiteAggregate
}

func newSiteStats() *siteStats {
	return &siteStats{bySite: make(map[string]*changefreq.SiteAggregate)}
}

// entry returns (creating if needed) the pooled aggregate for a site.
// Called on the engine goroutine at pop time, so workers receive a
// stable pointer and never touch the map (engine.go's fetchJob).
func (s *siteStats) entry(site string) *changefreq.SiteAggregate {
	agg, ok := s.bySite[site]
	if !ok {
		agg = &changefreq.SiteAggregate{}
		s.bySite[site] = agg
	}
	return agg
}

// poolSiteObservation pools one visit observation into a site
// aggregate. The SiteAggregate API pools whole histories; adding a
// single-interval history per observation keeps pooling incremental.
// Runs on the worker that fetched the page: per-site ordering is
// guaranteed by the dispatcher's site lines.
func poolSiteObservation(agg *changefreq.SiteAggregate, obsTime, gap float64, changed bool) {
	h := &changefreq.History{}
	_ = h.Record(changefreq.Observation{Time: obsTime - gap})
	_ = h.Record(changefreq.Observation{Time: obsTime, Changed: changed})
	agg.Add(h)
}

// rate returns the pooled site-level rate estimate for a URL's site, or
// ok=false when the site has no pooled signal yet.
func (s *siteStats) rate(url string) (float64, bool) {
	agg, ok := s.bySite[webgraph.SiteOf(url)]
	if !ok {
		return 0, false
	}
	est, err := agg.Estimate()
	if err != nil {
		return 0, false
	}
	return est.Rate, true
}

// workingRate combines page-level and site-level signals per the hybrid
// policy described above.
func (c *Crawler) workingRate(url string, est *estimator) float64 {
	pageRate := est.rate()
	if c.siteStats == nil {
		return pageRate
	}
	if est.hist.Accesses() >= c.cfg.SiteStatsMinSamples {
		return pageRate
	}
	if siteRate, ok := c.siteStats.rate(url); ok {
		return siteRate
	}
	return pageRate
}
