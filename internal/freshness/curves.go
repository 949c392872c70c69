package freshness

import (
	"errors"
	"math"
)

// This file derives the within-cycle freshness evolution curves plotted in
// Figures 7 and 8. All curves give the *expected* freshness of a
// collection of pages with change rate lambda at phase t of a cycle of
// length T, assuming the schedule has been running long enough to be in
// steady state.
//
// Batch in-place (Figure 7(a)): pages are synced at times uniform over
// the crawl window [0,w) of each cycle. A page synced at s is fresh at
// phase t with probability exp(-lambda*(t-s)) when t >= s, and its most
// recent sync was last cycle (at s-T relative to t) when t < s.
//
// Steady in-place (Figure 7(b)): the same expression with w = T; the
// curve is the constant FBar(lambda*T) — the paper's "freshness of the
// steady crawler is stable over time".
//
// Shadowing (Figure 8): the crawler's collection starts empty each cycle
// and accrues pages; the current collection is the previous shadow
// decaying exponentially from its swap-time freshness.

// Point is one sample of a curve.
type Point struct{ T, F float64 }

// CurveBatchInPlace returns the expected freshness of a batch-mode
// in-place collection at phase t (0 <= t < cycle), where the crawl
// occupies [0, crawlDur) of each cycle.
func CurveBatchInPlace(lambda, cycle, crawlDur, t float64) float64 {
	if lambda == 0 {
		return 1
	}
	w := math.Min(crawlDur, cycle)
	t = math.Mod(t, cycle)
	lw := lambda * w
	if t < w {
		// Pages synced in [0,t] this cycle plus pages not yet re-synced,
		// whose last sync was one cycle ago.
		a := 1 - math.Exp(-lambda*t)
		b := math.Exp(-lambda*(t+cycle)) * (math.Exp(lw) - math.Exp(lambda*t))
		return (a + b) / lw
	}
	return math.Exp(-lambda*t) * (math.Exp(lw) - 1) / lw
}

// CurveSteadyInPlace returns the (constant) expected freshness of a
// steady in-place collection.
func CurveSteadyInPlace(lambda, cycle float64) float64 {
	return FBar(lambda * cycle)
}

// CurveShadowCrawler returns the expected freshness of the *crawler's*
// (shadow) collection at phase t of its build, where the build occupies
// [0, buildDur). Pages crawled so far are fresh with exponentially
// decaying probability; pages not yet crawled count as absent (freshness
// contribution zero), so the curve climbs from 0 — the sawtooth tops of
// Figure 8.
func CurveShadowCrawler(lambda, buildDur, t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t > buildDur {
		t = buildDur
	}
	if lambda == 0 {
		return t / buildDur
	}
	return (1 - math.Exp(-lambda*t)) / (lambda * buildDur)
}

// CurveShadowCurrent returns the expected freshness of the *current*
// collection at time t since the last swap, for a shadow built over
// buildDur (for a steady crawler buildDur = cycle; for a batch crawler
// buildDur = crawl duration). The current collection starts at the
// shadow's swap-time freshness FBar(lambda*buildDur) and decays
// exponentially until the next swap.
func CurveShadowCurrent(lambda, buildDur, t float64) float64 {
	return math.Exp(-lambda*t) * FBar(lambda*buildDur)
}

// CurveBatchShadowCrawler returns the expected freshness of a batch
// crawler's shadow collection at phase t of a cycle whose crawl occupies
// [0, crawlDur): the build curve inside the window, 0 outside it, where
// the shadow has been swapped in and the next build has not started.
// t is not wrapped: callers pass a phase in [0, cycle].
func CurveBatchShadowCrawler(lambda, crawlDur, t float64) float64 {
	if t >= crawlDur {
		return 0
	}
	return CurveShadowCrawler(lambda, crawlDur, t)
}

// CurveBatchShadowCurrent returns the expected freshness of a batch
// crawler's current collection at phase t of a cycle whose crawl
// occupies [0, crawlDur): the shadow swapped in at crawlDur, decaying
// from the swap; before it, the previous cycle's shadow, swapped in
// cycle-crawlDur+t ago. t is not wrapped: callers pass a phase in
// [0, cycle].
func CurveBatchShadowCurrent(lambda, cycle, crawlDur, t float64) float64 {
	if t >= crawlDur {
		return CurveShadowCurrent(lambda, crawlDur, t-crawlDur)
	}
	return CurveShadowCurrent(lambda, crawlDur, t+cycle-crawlDur)
}

// Figure7Series returns the batch-mode (a) and steady (b) freshness
// evolution curves over the given number of cycles, sampled at
// samplesPerCycle points per cycle. The paper plots several monthly
// cycles with a high change rate so the trend is visible.
func Figure7Series(lambda, cycle, crawlDur float64, cycles, samplesPerCycle int) (batch, steady []Point, err error) {
	if cycles < 1 || samplesPerCycle < 2 {
		return nil, nil, errors.New("freshness: bad sampling parameters")
	}
	total := cycles * samplesPerCycle
	dur := float64(cycles) * cycle
	batch = make([]Point, total)
	steady = make([]Point, total)
	for i := 0; i < total; i++ {
		t := dur * float64(i) / float64(total-1)
		phase := math.Mod(t, cycle)
		batch[i] = Point{T: t, F: CurveBatchInPlace(lambda, cycle, crawlDur, phase)}
		steady[i] = Point{T: t, F: CurveSteadyInPlace(lambda, cycle)}
	}
	return batch, steady, nil
}

// Figure8Series returns the four curves of Figure 8 over the given number
// of cycles: the crawler's and current collection freshness for a steady
// crawler with shadowing (a) and for a batch crawler with shadowing (b).
// For the batch crawler, the crawler's collection is empty (0) outside
// its build window.
func Figure8Series(lambda, cycle, crawlDur float64, cycles, samplesPerCycle int) (steadyCrawler, steadyCurrent, batchCrawler, batchCurrent []Point, err error) {
	if cycles < 1 || samplesPerCycle < 2 {
		return nil, nil, nil, nil, errors.New("freshness: bad sampling parameters")
	}
	total := cycles * samplesPerCycle
	dur := float64(cycles) * cycle
	steadyCrawler = make([]Point, total)
	steadyCurrent = make([]Point, total)
	batchCrawler = make([]Point, total)
	batchCurrent = make([]Point, total)
	for i := 0; i < total; i++ {
		t := dur * float64(i) / float64(total-1)
		phase := math.Mod(t, cycle)
		steadyCrawler[i] = Point{T: t, F: CurveShadowCrawler(lambda, cycle, phase)}
		steadyCurrent[i] = Point{T: t, F: CurveShadowCurrent(lambda, cycle, phase)}
		batchCrawler[i] = Point{T: t, F: CurveBatchShadowCrawler(lambda, crawlDur, phase)}
		batchCurrent[i] = Point{T: t, F: CurveBatchShadowCurrent(lambda, cycle, crawlDur, phase)}
	}
	return steadyCrawler, steadyCurrent, batchCrawler, batchCurrent, nil
}
