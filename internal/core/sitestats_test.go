package core

import (
	"testing"

	"webevolve/internal/fetch"
	"webevolve/internal/simweb"
)

func TestSiteLevelStatsRuns(t *testing.T) {
	w, f := testWeb(t, 40)
	cfg := baseConfig(w)
	cfg.Freq = VariableFreq
	cfg.SiteLevelStats = true
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if c.siteStats == nil {
		t.Fatal("site stats not enabled")
	}
	if len(c.siteStats.bySite) == 0 {
		t.Fatal("no site aggregates accumulated")
	}
	// Pooled rates must be retrievable for crawled sites.
	found := false
	for _, u := range c.coll.URLs() {
		if r, ok := c.siteStats.rate(u); ok && r >= 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no pooled site rate available")
	}
}

func TestWorkingRatePrefersSiteSignalEarly(t *testing.T) {
	// A homogeneous site: after the site has pooled evidence, a page with
	// a one-interval history should inherit the site rate rather than its
	// own noisy estimate.
	w, err := simweb.New(simweb.Config{
		Seed:           41,
		SitesPerDomain: map[simweb.Domain]int{simweb.Com: 1},
		PagesPerSite:   50,
		Mixtures: map[simweb.Domain]simweb.Mixture{
			simweb.Com: {{Name: "m", Weight: 1, MinIntervalDays: 5, MaxIntervalDays: 5.001}},
		},
		LifespanMeanDays: map[simweb.Domain]float64{simweb.Com: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seeds:               w.RootURLs(),
		CollectionSize:      50,
		PagesPerDay:         50,
		CycleDays:           1,
		SiteLevelStats:      true,
		SiteStatsMinSamples: 10,
	}
	c, err := New(cfg, fetch.NewSimFetcher(w))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(8); err != nil {
		t.Fatal(err)
	}
	// Every page was visited ~8 times (< MinSamples 10), so workingRate
	// should be the pooled one — and the pool, fed by 50 homogeneous
	// pages, should sit near the true 0.2/day.
	url := c.coll.URLs()[1]
	p := c.pages[url]
	if p == nil {
		t.Fatal("no page state for collection page")
	}
	est := &p.est
	rate := c.workingRate(url, est)
	if rate < 0.1 || rate > 0.4 {
		t.Fatalf("pooled working rate %v, want near 0.2", rate)
	}
	siteRate, ok := c.siteStats.rate(url)
	if !ok {
		t.Fatal("site rate unavailable")
	}
	if rate != siteRate {
		t.Fatalf("working rate %v did not use site rate %v for short history", rate, siteRate)
	}
}

func TestWorkingRateUsesOwnHistoryWhenLong(t *testing.T) {
	w, f := testWeb(t, 42)
	cfg := baseConfig(w)
	cfg.SiteLevelStats = true
	cfg.SiteStatsMinSamples = 1 // own estimate takes over immediately
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(12); err != nil {
		t.Fatal(err)
	}
	for _, u := range c.coll.URLs() {
		p, ok := c.pages[u]
		if !ok || p.est.hist.Accesses() < 1 {
			continue
		}
		est := &p.est
		if got, want := c.workingRate(u, est), est.rate(); got != want {
			t.Fatalf("page with history used %v instead of own rate %v", got, want)
		}
		return
	}
	t.Fatal("no page with history found")
}
