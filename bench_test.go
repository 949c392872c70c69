// Package webevolve_test is the benchmark harness: one benchmark per
// table and figure in the paper's evaluation (the section comments
// below name each one), plus the architecture claims of Section 5 and
// ablations of the engine's design choices. Each benchmark regenerates
// its artifact's numbers and reports the headline values as custom
// metrics, the paper's value beside it in the metric's name where the
// paper gives one, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper end to end.
package webevolve_test

import (
	"math"
	"math/rand"
	"testing"

	"webevolve/internal/core"
	"webevolve/internal/experiment"
	"webevolve/internal/fetch"
	"webevolve/internal/freshness"
	"webevolve/internal/simweb"
)

// benchWeb builds the shared reduced-scale experiment web: the paper's
// 270 sites with smaller windows so a full 128-day replay stays fast.
func benchWeb(b testing.TB, pagesPerSite int) *simweb.Web {
	b.Helper()
	w, err := simweb.New(simweb.PaperScaleConfig(1999, pagesPerSite))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// --- T1: Table 1 — site selection by site-level PageRank ---

func BenchmarkTable1SiteSelection(b *testing.B) {
	cfg := simweb.Config{
		Seed: 1999,
		SitesPerDomain: map[simweb.Domain]int{
			simweb.Com: 264, simweb.Edu: 156, simweb.NetOrg: 60, simweb.Gov: 60,
		},
		PagesPerSite: 40,
	}
	var sel *experiment.SelectionResult
	for i := 0; i < b.N; i++ {
		w, err := simweb.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sel, err = experiment.SelectSites(w, experiment.SelectionConfig{
			CandidateCount: 400, KeepCount: 270, Seed: 1999,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sel.Table1[simweb.Com]), "com(paper:132)")
	b.ReportMetric(float64(sel.Table1[simweb.Edu]), "edu(paper:78)")
	b.ReportMetric(float64(sel.Table1[simweb.NetOrg]), "netorg(paper:30)")
	b.ReportMetric(float64(sel.Table1[simweb.Gov]), "gov(paper:30)")
}

// monitorOnce runs the Section 2-3 daily monitoring crawl once and
// caches nothing: each bench that needs observations re-runs it so the
// reported ns/op covers the full experiment replay.
func monitorOnce(b *testing.B, pagesPerSite, days int) *experiment.Observations {
	b.Helper()
	w := benchWeb(b, pagesPerSite)
	obs, err := experiment.Monitor(w, experiment.MonitorConfig{Days: days})
	if err != nil {
		b.Fatal(err)
	}
	return obs
}

// --- F2: Figure 2 — average change interval distribution ---

func BenchmarkFigure2ChangeIntervals(b *testing.B) {
	var r *experiment.Figure2Result
	for i := 0; i < b.N; i++ {
		obs := monitorOnce(b, 60, experiment.PaperDays)
		r = obs.Figure2()
	}
	fr := r.Overall.Fractions()
	b.ReportMetric(fr[0], "frac<=1day(paper:>0.20)")
	b.ReportMetric(r.ByDomain[simweb.Com].Fractions()[0], "com<=1day(paper:>0.40)")
	b.ReportMetric(r.ByDomain[simweb.Edu].Fractions()[4], "edu>4mo(paper:>0.50)")
	b.ReportMetric(r.ByDomain[simweb.Gov].Fractions()[4], "gov>4mo(paper:>0.50)")
	b.ReportMetric(r.MeanIntervalDays, "crude-mean-days(paper:~120)")
}

// --- F4: Figure 4 — visible lifespan, Methods 1 and 2 ---

func BenchmarkFigure4Lifespan(b *testing.B) {
	var r *experiment.Figure4Result
	for i := 0; i < b.N; i++ {
		obs := monitorOnce(b, 60, experiment.PaperDays)
		r = obs.Figure4()
	}
	m1 := r.Method1.Fractions()
	b.ReportMetric(m1[2]+m1[3], "frac>1month(paper:>0.70)")
	b.ReportMetric(r.ByDomainM1[simweb.Edu].Fractions()[3], "edu>4mo(paper:>0.50)")
	b.ReportMetric(r.ByDomainM1[simweb.Gov].Fractions()[3], "gov>4mo(paper:>0.50)")
	b.ReportMetric(r.ByDomainM1[simweb.Com].Fractions()[3], "com>4mo(shortest)")
}

// --- F5: Figure 5 — time for 50% of the web to change ---

func BenchmarkFigure5HalfLife(b *testing.B) {
	var r *experiment.Figure5Result
	for i := 0; i < b.N; i++ {
		obs := monitorOnce(b, 60, experiment.PaperDays)
		r = obs.Figure5()
	}
	if hl, ok := experiment.HalfLifeDays(r.Unchanged); ok {
		b.ReportMetric(hl, "overall-days(paper:~50)")
	}
	if hl, ok := experiment.HalfLifeDays(r.ByDomain[simweb.Com]); ok {
		b.ReportMetric(hl, "com-days(paper:11)")
	}
	if hl, ok := experiment.HalfLifeDays(r.ByDomain[simweb.Gov]); ok {
		b.ReportMetric(hl, "gov-days(paper:~120)")
	}
}

// --- F6: Figure 6 — Poisson model verification ---

func BenchmarkFigure6PoissonFit(b *testing.B) {
	var r10, r20 *experiment.Figure6Result
	for i := 0; i < b.N; i++ {
		obs := monitorOnce(b, 60, experiment.PaperDays)
		var err error
		r10, err = obs.Figure6(10, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		r20, err = obs.Figure6(20, 0.2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r10.FitR2, "R2-10day(straight-line)")
	b.ReportMetric(r10.FittedRate, "rate-10day(1/interval:0.10)")
	b.ReportMetric(r20.FitR2, "R2-20day(straight-line)")
	b.ReportMetric(r20.FittedRate, "rate-20day(1/interval:0.05)")
}

// --- F7: Figure 7 — freshness evolution curves ---

func BenchmarkFigure7FreshnessEvolution(b *testing.B) {
	var batch, steady []freshness.Point
	for i := 0; i < b.N; i++ {
		var err error
		batch, steady, err = freshness.Figure7Series(4, 1, 7.0/30, 3, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Batch oscillates; steady is flat; both average to the same value.
	min, max := 1.0, 0.0
	var sum float64
	for _, p := range batch {
		if p.F < min {
			min = p.F
		}
		if p.F > max {
			max = p.F
		}
		sum += p.F
	}
	b.ReportMetric(max-min, "batch-swing")
	b.ReportMetric(sum/float64(len(batch)), "batch-avg")
	b.ReportMetric(steady[0].F, "steady-const(equal-avg)")
}

// --- F8: Figure 8 — shadowing curves ---

func BenchmarkFigure8Shadowing(b *testing.B) {
	var sc, scur, bc, bcur []freshness.Point
	for i := 0; i < b.N; i++ {
		var err error
		sc, scur, bc, bcur, err = freshness.Figure8Series(4, 1, 7.0/30, 3, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := func(pts []freshness.Point) float64 {
		var s float64
		for _, p := range pts {
			s += p.F
		}
		return s / float64(len(pts))
	}
	b.ReportMetric(avg(sc), "steady-crawler-avg")
	b.ReportMetric(avg(scur), "steady-current-avg")
	b.ReportMetric(avg(bc), "batch-crawler-avg")
	b.ReportMetric(avg(bcur), "batch-current-avg")
}

// --- T2: Table 2 — the 2x2 design-point freshness matrix ---

func BenchmarkTable2FreshnessMatrix(b *testing.B) {
	var m map[freshness.Design]float64
	for i := 0; i < b.N; i++ {
		var err error
		m, err = freshness.Table2(4, 1, 7.0/30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m[freshness.Design{}], "steady-inplace(paper:0.88)")
	b.ReportMetric(m[freshness.Design{Batch: true}], "batch-inplace(paper:0.88)")
	b.ReportMetric(m[freshness.Design{Shadow: true}], "steady-shadow(paper:0.77)")
	b.ReportMetric(m[freshness.Design{Batch: true, Shadow: true}], "batch-shadow(paper:0.86)")
}

// --- S4: Section 4 sensitivity example ---

func BenchmarkSensitivityExample(b *testing.B) {
	var inPlace, shadow float64
	for i := 0; i < b.N; i++ {
		inPlace = freshness.BatchInPlace(1, 1)
		shadow = freshness.BatchShadow(1, 1, 0.5)
	}
	b.ReportMetric(inPlace, "inplace(paper:0.63)")
	b.ReportMetric(shadow, "shadow(paper:0.50)")
}

// --- F9: Figure 9 — optimal revisit frequency ---

// figure9Workload is the Figure 9 operating point: the change rates of
// the calibrated web-like mixture's pages under scarce bandwidth (one
// visit per page per two months).
func figure9Workload(tb testing.TB) (rates []float64, budget float64) {
	w := benchWeb(tb, 15)
	for _, s := range w.Sites() {
		for _, p := range s.AlivePages(0) {
			rates = append(rates, p.Rate())
		}
	}
	return rates, float64(len(rates)) / 60
}

// figure9Peak returns the index of the curve's highest frequency.
func figure9Peak(pts []freshness.Point) int {
	peak := 0
	for i, p := range pts {
		if p.F > pts[peak].F {
			peak = i
		}
	}
	return peak
}

func BenchmarkFigure9OptimalRevisit(b *testing.B) {
	rates, budget := figure9Workload(b)
	var gain, opt, uni float64
	var pts []freshness.Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = freshness.Figure9Curve(rates, budget)
		if err != nil {
			b.Fatal(err)
		}
		opt, uni, gain, err = freshness.AllocationGain(rates, budget)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(figure9Peak(pts))/float64(len(pts)), "peak-position(interior)")
	b.ReportMetric(opt, "optimal-freshness")
	b.ReportMetric(uni, "uniform-freshness")
	b.ReportMetric(100*gain, "gain%(paper:10-23)")
}

// TestFigure9OptimalRevisit asserts what BenchmarkFigure9OptimalRevisit
// reports: on the web-like workload the optimal revisit frequency rises
// with the change rate, peaks in the interior and falls to zero for
// pages that change too fast to keep fresh, and the allocation beats
// the uniform policy. The size of that gain depends on how scarce
// bandwidth is: 8.1% at the benchmark's one visit per page per two
// months — short of the 10-23% the paper quotes from [CGM99b] — and
// inside that band (11.1%) at one visit per eight months.
func TestFigure9OptimalRevisit(t *testing.T) {
	rates, budget := figure9Workload(t)
	pts, err := freshness.Figure9Curve(rates, budget)
	if err != nil {
		t.Fatal(err)
	}
	peak := figure9Peak(pts)
	if peak == 0 || peak == len(pts)-1 {
		t.Fatalf("peak at index %d of %d: not interior", peak, len(pts))
	}
	for i := 1; i < len(pts); i++ {
		rising := i <= peak
		if d := pts[i].F - pts[i-1].F; (rising && d < -1e-9) || (!rising && d > 1e-9) {
			t.Fatalf("not unimodal at rate %v (index %d, peak %d): %v -> %v",
				pts[i].T, i, peak, pts[i-1].F, pts[i].F)
		}
	}
	fastest := pts[len(pts)-1]
	if fastest.F != 0 {
		t.Fatalf("fastest page (%.3g changes/day) still gets %v visits/day", fastest.T, fastest.F)
	}
	if slowest := pts[0]; !(slowest.F > 0 && slowest.F < pts[peak].F) {
		t.Fatalf("slowest page gets %v visits/day, peak %v", slowest.F, pts[peak].F)
	}
	for _, c := range []struct {
		daysPerVisit float64
		lo, hi       float64
	}{
		{60, 0.075, 0.087}, // the benchmark's operating point: 8.1%
		{240, 0.10, 0.23},  // the paper's band
	} {
		opt, uni, gain, err := freshness.AllocationGain(rates, float64(len(rates))/c.daysPerVisit)
		if err != nil {
			t.Fatal(err)
		}
		if gain < c.lo || gain > c.hi {
			t.Errorf("one visit per %v days: gain over uniform %.1f%% (optimal %.4f, uniform %.4f), want %.1f-%.1f%%",
				c.daysPerVisit, 100*gain, opt, uni, 100*c.lo, 100*c.hi)
		}
	}
}

// --- A1: Section 5.3 — UpdateModule throughput (40 pages/s claim) ---

// BenchmarkUpdateModuleThroughput measures the engine's sustained page
// rate — 8 CrawlModules over the sharded frontier, steady in-place,
// fixed frequency, a ranking pass per virtual day — against the
// paper's requirement (100M pages/month needs ~40 pages/s). One op is
// one page.
func BenchmarkUpdateModuleThroughput(b *testing.B) {
	w := benchWeb(b, 30)
	const pagesPerDay = 2000
	c, err := core.New(core.Config{
		Seeds:          w.RootURLs(),
		CollectionSize: pagesPerDay,
		PagesPerDay:    pagesPerDay,
		CycleDays:      1,
		RankEveryDays:  1,
		Workers:        8,
	}, fetch.NewSimFetcher(w))
	if err != nil {
		b.Fatal(err)
	}
	const warmupDays = 5 // discovery fills the collection
	if err := c.RunUntil(warmupDays); err != nil {
		b.Fatal(err)
	}
	before := c.Metrics().Fetches
	b.ResetTimer()
	if err := c.RunUntil(warmupDays + float64(b.N)/pagesPerDay); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	pages := c.Metrics().Fetches - before
	b.ReportMetric(float64(pages)/b.Elapsed().Seconds(), "pages/s(paper-needs:40)")
}

// --- A2: estimator quality ablation (EP vs EB vs naive) ---

func BenchmarkEstimatorConvergence(b *testing.B) {
	// Crawl the same web with each estimator and compare achieved
	// freshness under the variable-frequency policy.
	run := func(kind core.EstimatorKind) float64 {
		w, err := simweb.New(simweb.Config{
			Seed: 5,
			SitesPerDomain: map[simweb.Domain]int{
				simweb.Com: 6, simweb.Edu: 4, simweb.NetOrg: 1, simweb.Gov: 1,
			},
			PagesPerSite: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{
			Seeds:          w.RootURLs(),
			CollectionSize: 500,
			PagesPerDay:    500.0 / 20,
			CycleDays:      20,
			RankEveryDays:  10,
			Freq:           core.VariableFreq,
			Estimator:      kind,
		}
		c, err := core.New(cfg, fetch.NewSimFetcher(w))
		if err != nil {
			b.Fatal(err)
		}
		ev := &core.Evaluator{Web: w}
		avg, _, err := ev.TimeAveragedFreshness(c, 140, 40, 16, cfg.CollectionSize)
		if err != nil {
			b.Fatal(err)
		}
		return avg
	}
	var ep, eb, naive float64
	for i := 0; i < b.N; i++ {
		ep = run(core.EstimatorEP)
		eb = run(core.EstimatorEB)
		naive = run(core.EstimatorNaive)
	}
	b.ReportMetric(ep, "freshness-EP")
	b.ReportMetric(eb, "freshness-EB")
	b.ReportMetric(naive, "freshness-naive")
}

// --- A3: end-to-end incremental vs periodic (Figure 10) ---

func BenchmarkIncrementalVsPeriodic(b *testing.B) {
	mk := func() (*simweb.Web, core.Config) {
		w, err := simweb.New(simweb.Config{
			Seed: 2000,
			SitesPerDomain: map[simweb.Domain]int{
				simweb.Com: 10, simweb.Edu: 6, simweb.NetOrg: 2, simweb.Gov: 2,
			},
			PagesPerSite: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		return w, core.Config{
			Seeds:          w.RootURLs(),
			CollectionSize: 1200,
			PagesPerDay:    1200.0 / 10,
			CycleDays:      10,
			BatchDays:      2.5,
			RankEveryDays:  10,
			Estimator:      core.EstimatorEP,
		}
	}
	var inc, per float64
	for i := 0; i < b.N; i++ {
		w, cfg := mk()
		cfg.Mode, cfg.Update, cfg.Freq = core.Steady, core.InPlace, core.VariableFreq
		c, err := core.New(cfg, fetch.NewSimFetcher(w))
		if err != nil {
			b.Fatal(err)
		}
		ev := &core.Evaluator{Web: w}
		inc, _, err = ev.TimeAveragedFreshness(c, 80, 20, 16, cfg.CollectionSize)
		if err != nil {
			b.Fatal(err)
		}

		w2, cfg2 := mk()
		p, err := core.NewPeriodic(cfg2, fetch.NewSimFetcher(w2))
		if err != nil {
			b.Fatal(err)
		}
		ev2 := &core.Evaluator{Web: w2}
		per, _, err = ev2.TimeAveragedFreshness(p, 80, 20, 16, cfg2.CollectionSize)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(inc, "incremental-freshness")
	b.ReportMetric(per, "periodic-freshness")
	b.ReportMetric(inc/per, "ratio(incremental-wins:>1)")
}

// --- A4: the age metric ([CGM99b]'s second metric, Section 4's remark
// that it yields the same conclusions) ---

func BenchmarkAgeMetricTable2(b *testing.B) {
	var ages map[freshness.Design]float64
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < b.N; i++ {
		var err error
		ages, err = freshness.AgeTable2(rng, 4, 1, 7.0/30, 1200, 24)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ages[freshness.Design{}], "age-steady-inplace(months)")
	b.ReportMetric(ages[freshness.Design{Batch: true}], "age-batch-inplace(months)")
	b.ReportMetric(ages[freshness.Design{Shadow: true}], "age-steady-shadow(worst)")
	b.ReportMetric(ages[freshness.Design{Batch: true, Shadow: true}], "age-batch-shadow(months)")
}

// --- Ablation: ranking cadence vs quality (the decoupling argument) ---

func BenchmarkRankingCadenceAblation(b *testing.B) {
	run := func(rankEvery float64) float64 {
		w, err := simweb.New(simweb.Config{
			Seed: 77,
			SitesPerDomain: map[simweb.Domain]int{
				simweb.Com: 6, simweb.Edu: 4, simweb.NetOrg: 2, simweb.Gov: 2,
			},
			PagesPerSite: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{
			Seeds:          w.RootURLs(),
			CollectionSize: 400,
			PagesPerDay:    400.0 / 10,
			CycleDays:      10,
			RankEveryDays:  rankEvery,
			Freq:           core.VariableFreq,
			Estimator:      core.EstimatorEP,
		}
		c, err := core.New(cfg, fetch.NewSimFetcher(w))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.RunUntil(60); err != nil {
			b.Fatal(err)
		}
		ev := &core.Evaluator{Web: w}
		q, err := ev.Quality(c.Collection(), c.Day())
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	var fast, slow float64
	for i := 0; i < b.N; i++ {
		fast = run(5)
		slow = run(30)
	}
	b.ReportMetric(fast, "quality-rank-every-5d")
	b.ReportMetric(slow, "quality-rank-every-30d")
}

// --- Ablation: site-level vs page-level change statistics (Section 5.3) ---

func BenchmarkSiteLevelStatsAblation(b *testing.B) {
	// Compare estimate error using per-page histories vs a pooled
	// site-level aggregate, on a site with homogeneous rates and on one
	// with heterogeneous rates — the paper's "tighter interval vs
	// misleading average" trade-off, measured.
	homogeneous, heterogeneous := benchSiteStats(b, true), benchSiteStats(b, false)
	for i := 1; i < b.N; i++ {
		_ = benchSiteStats(b, true)
	}
	b.ReportMetric(homogeneous, "site-vs-page-gain(homogeneous)")
	b.ReportMetric(heterogeneous, "site-vs-page-gain(heterogeneous)")
}

// benchSiteStats returns mean |error| of page-level estimates divided by
// mean |error| of the site-level estimate; > 1 means pooling helped.
func benchSiteStats(b *testing.B, homogeneous bool) float64 {
	b.Helper()
	mix := simweb.Mixture{{Name: "m", Weight: 1, MinIntervalDays: 10, MaxIntervalDays: 10.0001}}
	if !homogeneous {
		mix = simweb.Mixture{
			{Name: "fast", Weight: 0.5, MinIntervalDays: 1, MaxIntervalDays: 2},
			{Name: "slow", Weight: 0.5, MinIntervalDays: 100, MaxIntervalDays: 200},
		}
	}
	w, err := simweb.New(simweb.Config{
		Seed:             99,
		SitesPerDomain:   map[simweb.Domain]int{simweb.Com: 1},
		PagesPerSite:     80,
		Mixtures:         map[simweb.Domain]simweb.Mixture{simweb.Com: mix},
		LifespanMeanDays: map[simweb.Domain]float64{simweb.Com: -1}, // immortal
	})
	if err != nil {
		b.Fatal(err)
	}
	f := fetch.NewSimFetcher(w)
	site := w.Sites()[0]
	type tracked struct {
		hist *freshHistory
		rate float64
	}
	var pages []tracked
	for _, p := range site.AlivePages(0) {
		pages = append(pages, tracked{hist: newFreshHistory(), rate: p.Rate()})
	}
	urls := site.WindowURLs(0)
	for day := 0.0; day <= 60; day++ {
		for i, u := range urls {
			res, err := f.Fetch(u, day)
			if err != nil || res.NotFound {
				continue
			}
			pages[i].hist.observe(day, res.Checksum)
		}
	}
	var pageErr, siteErr float64
	agg := &aggregate{}
	var meanRate float64
	for _, p := range pages {
		est := p.hist.rate()
		pageErr += abs(est - p.rate)
		agg.add(p.hist)
		meanRate += p.rate
	}
	meanRate /= float64(len(pages))
	pageErr /= float64(len(pages))
	siteErr = abs(agg.rate() - meanRate)
	if siteErr == 0 {
		siteErr = 1e-9
	}
	return pageErr / siteErr
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Minimal local helpers so the bench reads clearly without exporting
// test-only APIs from internal/changefreq.
type freshHistory struct {
	n, x    int
	prev    uint64
	started bool
	first   float64
	last    float64
}

func newFreshHistory() *freshHistory { return &freshHistory{} }

func (h *freshHistory) observe(day float64, sum uint64) {
	if !h.started {
		h.started = true
		h.prev = sum
		h.first, h.last = day, day
		return
	}
	h.n++
	if sum != h.prev {
		h.x++
		h.prev = sum
	}
	h.last = day
}

func (h *freshHistory) rate() float64 {
	if h.n == 0 || h.last <= h.first {
		return 0
	}
	iMean := (h.last - h.first) / float64(h.n)
	n, x := float64(h.n), float64(h.x)
	r := -math.Log((n-x+0.5)/(n+0.5)) / iMean
	if r < 0 {
		r = 0
	}
	return r
}

type aggregate struct {
	n, x int
	span float64
}

func (a *aggregate) add(h *freshHistory) {
	a.n += h.n
	a.x += h.x
	a.span += h.last - h.first
}

func (a *aggregate) rate() float64 {
	if a.n == 0 || a.span <= 0 {
		return 0
	}
	iMean := a.span / float64(a.n)
	n, x := float64(a.n), float64(a.x)
	r := -math.Log((n-x+0.5)/(n+0.5)) / iMean
	if r < 0 {
		r = 0
	}
	return r
}
