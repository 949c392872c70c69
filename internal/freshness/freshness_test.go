package freshness

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFBarBasics(t *testing.T) {
	if FBar(0) != 1 {
		t.Fatal("FBar(0) != 1")
	}
	if !math.IsNaN(FBar(-1)) {
		t.Fatal("FBar(-1) not NaN")
	}
	// Small-x series path agrees with the Taylor expansion (the direct
	// formula suffers catastrophic cancellation down here, which is why
	// the series path exists).
	x := 1e-9
	want := 1 - x/2 + x*x/6
	if !close(FBar(x), want, 1e-15) {
		t.Fatalf("series %v vs taylor %v", FBar(x), want)
	}
	// And at moderate x the two paths agree.
	x = 1e-6
	direct := (1 - math.Exp(-x)) / x
	if !close(FBar(x), direct, 1e-9) {
		t.Fatalf("series %v vs direct %v at x=1e-6", FBar(x), direct)
	}
}

func TestFBarMonotoneDecreasingProperty(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 50))
		b = math.Abs(math.Mod(b, 50))
		if a > b {
			a, b = b, a
		}
		return FBar(a) >= FBar(b)-1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	// Paper parameters: 4-month change interval, monthly cycle, 1-week
	// batch crawl -> 0.88 / 0.88 / 0.77 / 0.86.
	m, err := Table2(4, 1, 7.0/30)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d    Design
		want float64
		tol  float64
	}{
		{Design{false, false}, 0.88, 0.01},
		{Design{true, false}, 0.88, 0.01},
		{Design{false, true}, 0.77, 0.015}, // exact value 0.783
		{Design{true, true}, 0.86, 0.01},
	}
	for _, c := range cases {
		if !close(m[c.d], c.want, c.tol) {
			t.Errorf("%s: %v, want %v +- %v", c.d, m[c.d], c.want, c.tol)
		}
	}
}

func TestTable2Ordering(t *testing.T) {
	// in-place >= batch-shadow >= steady-shadow for any parameters.
	for _, mean := range []float64{1, 4, 12} {
		m, err := Table2(mean, 1, 7.0/30)
		if err != nil {
			t.Fatal(err)
		}
		ip := m[Design{false, false}]
		bs := m[Design{true, true}]
		ss := m[Design{false, true}]
		if !(ip >= bs && bs >= ss) {
			t.Errorf("mean %v: ordering violated: %v %v %v", mean, ip, bs, ss)
		}
	}
}

func TestSensitivityExample(t *testing.T) {
	// Monthly changes, 2-week batch crawl: 0.63 in-place vs 0.50 shadow.
	if got := BatchInPlace(1, 1); !close(got, 0.63, 0.005) {
		t.Fatalf("in-place %v, want 0.63", got)
	}
	if got := BatchShadow(1, 1, 0.5); !close(got, 0.50, 0.005) {
		t.Fatalf("shadow %v, want 0.50", got)
	}
}

func TestSteadyEqualsBatchInPlace(t *testing.T) {
	// The paper: equal average speed implies equal time-average
	// freshness for steady and batch in-place crawlers.
	if err := quick.Check(func(l, c float64) bool {
		l = math.Abs(math.Mod(l, 10)) + 0.01
		c = math.Abs(math.Mod(c, 10)) + 0.01
		return close(SteadyInPlace(l, c), BatchInPlace(l, c), 1e-12)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShadowNeverBeatsInPlace(t *testing.T) {
	if err := quick.Check(func(l, c, w float64) bool {
		l = math.Abs(math.Mod(l, 10)) + 0.01
		c = math.Abs(math.Mod(c, 10)) + 0.01
		w = math.Abs(math.Mod(w, 1))*c + 1e-6
		return SteadyShadow(l, c) <= SteadyInPlace(l, c)+1e-12 &&
			BatchShadow(l, c, w) <= BatchInPlace(l, c)+1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchShadowApproachesInPlaceAsCrawlShortens(t *testing.T) {
	const l, c = 0.25, 1.0
	prev := 0.0
	for _, w := range []float64{0.5, 0.25, 0.1, 0.01, 0.001} {
		got := BatchShadow(l, c, w)
		if got < prev {
			t.Fatalf("not monotone as w shrinks: %v after %v", got, prev)
		}
		prev = got
	}
	if !close(prev, BatchInPlace(l, c), 1e-3) {
		t.Fatalf("limit %v, want %v", prev, BatchInPlace(l, c))
	}
}

func TestBatchShadowClampsCrawlToCycle(t *testing.T) {
	if got, want := BatchShadow(1, 1, 5), SteadyShadow(1, 1); !close(got, want, 1e-12) {
		t.Fatalf("over-long crawl %v, want steady-shadow %v", got, want)
	}
}

func TestAvgAge(t *testing.T) {
	// Immutable pages and zero intervals have age 0.
	if AvgAge(0, 10) != 0 || AvgAge(1, 0) != 0 {
		t.Fatal("degenerate ages nonzero")
	}
	// For lambda*I -> infinity, avg age -> I/2 - 1/lambda.
	const l, i = 100.0, 10.0
	if got, want := AvgAge(l, i), i/2-1/l; !close(got, want, 1e-3) {
		t.Fatalf("asymptotic age %v, want %v", got, want)
	}
	// Age decreases as revisits become more frequent.
	if AvgAge(1, 1) >= AvgAge(1, 10) {
		t.Fatal("age not increasing in interval")
	}
}

func TestAvgAgeMatchesSimulation(t *testing.T) {
	// Direct event-driven check of the closed form.
	rng := rand.New(rand.NewSource(42))
	const l, interval = 0.5, 2.0
	const cycles = 20000
	var total float64
	var samples int
	for c := 0; c < cycles; c++ {
		// One sync interval: change times are Poisson(l) on [0,interval).
		var changes []float64
		tt := rng.ExpFloat64() / l
		for tt < interval {
			changes = append(changes, tt)
			tt += rng.ExpFloat64() / l
		}
		// Probe age at a uniform instant.
		u := rng.Float64() * interval
		age := 0.0
		if len(changes) > 0 && changes[0] <= u {
			age = u - changes[0]
		}
		total += age
		samples++
	}
	got := total / float64(samples)
	want := AvgAge(l, interval)
	if !close(got, want, 0.02) {
		t.Fatalf("simulated age %v, formula %v", got, want)
	}
}

func TestDesignStringAndList(t *testing.T) {
	if (Design{}).String() != "steady/in-place" {
		t.Fatal((Design{}).String())
	}
	if (Design{Batch: true, Shadow: true}).String() != "batch-mode/shadowing" {
		t.Fatal("batch/shadow name")
	}
	if len(Designs) != 4 {
		t.Fatal("Designs must enumerate the 2x2 matrix")
	}
}

func TestTable2Validation(t *testing.T) {
	if _, err := Table2(0, 1, 1); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := Table2(4, -1, 1); err == nil {
		t.Fatal("negative cycle accepted")
	}
}

func TestMeanOverRates(t *testing.T) {
	got, err := MeanOverRates([]float64{0.1, 0.3}, func(l float64) float64 { return l })
	if err != nil || !close(got, 0.2, 1e-12) {
		t.Fatalf("mean %v err %v", got, err)
	}
	if _, err := MeanOverRates(nil, nil); err == nil {
		t.Fatal("empty rates accepted")
	}
	if _, err := MeanOverRates([]float64{-1}, func(float64) float64 { return 0 }); err == nil {
		t.Fatal("negative rate accepted")
	}
}

// --- curve tests ---

func TestCurveSteadyIsConstantAtFBar(t *testing.T) {
	const l, c = 2.0, 1.0
	want := FBar(l * c)
	for _, tt := range []float64{0, 0.3, 0.7, 0.999} {
		if got := CurveSteadyInPlace(l, c); !close(got, want, 1e-12) {
			t.Fatalf("steady curve at %v: %v", tt, got)
		}
	}
}

func TestCurveBatchInPlaceContinuity(t *testing.T) {
	const l, c, w = 3.0, 1.0, 0.25
	// Continuity at the crawl boundary t = w.
	a := CurveBatchInPlace(l, c, w, w-1e-9)
	b := CurveBatchInPlace(l, c, w, w+1e-9)
	if !close(a, b, 1e-6) {
		t.Fatalf("discontinuity at w: %v vs %v", a, b)
	}
	// Periodicity.
	if !close(CurveBatchInPlace(l, c, w, 0.1), CurveBatchInPlace(l, c, w, 1.1), 1e-9) {
		t.Fatal("curve not periodic")
	}
	// Immutable pages are always fresh.
	if CurveBatchInPlace(0, c, w, 0.5) != 1 {
		t.Fatal("zero-rate curve != 1")
	}
}

func TestCurveBatchAveragesToClosedForm(t *testing.T) {
	// The time average of the within-cycle curve must equal
	// BatchInPlace's closed form.
	const l, c, w = 3.0, 1.0, 0.25
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += CurveBatchInPlace(l, c, w, c*float64(i)/n)
	}
	avg := sum / n
	if !close(avg, BatchInPlace(l, c), 1e-3) {
		t.Fatalf("curve average %v, closed form %v", avg, BatchInPlace(l, c))
	}
}

func TestCurveShadowCurrentAveragesToClosedForm(t *testing.T) {
	const l, c = 3.0, 1.0
	const n = 20000
	// Steady shadow: current = CurveShadowCurrent(l, c, t), t in [0, c).
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += CurveShadowCurrent(l, c, c*float64(i)/n)
	}
	if avg := sum / n; !close(avg, SteadyShadow(l, c), 1e-3) {
		t.Fatalf("steady shadow average %v, closed form %v", avg, SteadyShadow(l, c))
	}
	// Batch shadow with build w: current decays from FBar(l*w) over a
	// cycle.
	const w = 0.25
	sum = 0
	for i := 0; i < n; i++ {
		sum += CurveShadowCurrent(l, w, c*float64(i)/n)
	}
	if avg := sum / n; !close(avg, BatchShadow(l, c, w), 1e-3) {
		t.Fatalf("batch shadow average %v, closed form %v", avg, BatchShadow(l, c, w))
	}
}

func TestCurveShadowCrawlerRampsFromZero(t *testing.T) {
	const l, b = 2.0, 1.0
	if CurveShadowCrawler(l, b, 0) != 0 {
		t.Fatal("crawler curve must start at 0")
	}
	prev := -1.0
	for _, tt := range []float64{0.1, 0.3, 0.6, 1.0} {
		got := CurveShadowCrawler(l, b, tt)
		if got <= prev {
			t.Fatalf("crawler curve not increasing at %v", tt)
		}
		prev = got
	}
	if got, want := CurveShadowCrawler(l, b, b), FBar(l*b); !close(got, want, 1e-12) {
		t.Fatalf("swap-time freshness %v, want %v", got, want)
	}
}

func TestFigure7And8SeriesShapes(t *testing.T) {
	batch, steady, err := Figure7Series(4, 1, 0.25, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 100 || len(steady) != 100 {
		t.Fatalf("lengths %d %d", len(batch), len(steady))
	}
	// Steady is flat; batch oscillates.
	for i := 1; i < len(steady); i++ {
		if steady[i].F != steady[0].F {
			t.Fatal("steady curve not flat")
		}
	}
	minB, maxB := 1.0, 0.0
	for _, p := range batch {
		minB = math.Min(minB, p.F)
		maxB = math.Max(maxB, p.F)
	}
	if maxB-minB < 0.2 {
		t.Fatalf("batch curve too flat: %v..%v", minB, maxB)
	}

	sc, scur, bc, bcur, err := Figure8Series(4, 1, 0.25, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc) != 100 || len(scur) != 100 || len(bc) != 100 || len(bcur) != 100 {
		t.Fatal("figure 8 lengths")
	}
	// The current collection under shadowing is the crawler's collection
	// delayed: its freshness must always lag the in-place value.
	inPlace := FBar(4.0)
	for _, p := range scur {
		if p.F > inPlace+1e-9 {
			t.Fatalf("shadow current %v exceeds in-place average %v", p.F, inPlace)
		}
	}
	if _, _, err := Figure7Series(1, 1, 0.25, 0, 10); err == nil {
		t.Fatal("zero cycles accepted")
	}
}
