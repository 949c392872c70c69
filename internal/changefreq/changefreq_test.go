package changefreq

import (
	"math"
	"math/rand"
	"testing"
)

// observe simulates daily accesses to a page with true Poisson change
// rate for the given number of days, recording detected changes.
func observe(rng *rand.Rand, h *History, rate float64, days int) {
	t := 0.0
	nextChange := rng.ExpFloat64() / rate
	if err := h.Record(Observation{Time: 0}); err != nil {
		panic(err)
	}
	for d := 1; d <= days; d++ {
		t = float64(d)
		changed := false
		for nextChange <= t {
			changed = true
			nextChange += rng.ExpFloat64() / rate
		}
		if err := h.Record(Observation{Time: t, Changed: changed}); err != nil {
			panic(err)
		}
	}
}

func TestHistoryRecordAndCounters(t *testing.T) {
	h := &History{}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(h.Record(Observation{Time: 0}))
	must(h.Record(Observation{Time: 1, Changed: true}))
	must(h.Record(Observation{Time: 2, Changed: false}))
	must(h.Record(Observation{Time: 4, Changed: true}))
	if h.Accesses() != 3 || h.Detected() != 2 || h.Span() != 4 {
		t.Fatalf("n=%d x=%d span=%v", h.Accesses(), h.Detected(), h.Span())
	}
}

func TestHistoryLast(t *testing.T) {
	h := &History{}
	if last, ok := h.Last(); ok || last != 0 {
		t.Fatalf("empty history: Last = %v, %v", last, ok)
	}
	for _, tm := range []float64{2, 3.5, 9} {
		if err := h.Record(Observation{Time: tm, Changed: true}); err != nil {
			t.Fatal(err)
		}
		if last, ok := h.Last(); !ok || last != tm {
			t.Fatalf("after an access at %v: Last = %v, %v", tm, last, ok)
		}
	}
	if err := h.Record(Observation{Time: 8}); err == nil {
		t.Fatal("out-of-order access accepted")
	}
	if last, _ := h.Last(); last != 9 {
		t.Fatalf("a rejected access moved Last to %v", last)
	}
}

func TestHistoryRejectsOutOfOrder(t *testing.T) {
	h := &History{}
	_ = h.Record(Observation{Time: 5})
	if err := h.Record(Observation{Time: 4}); err == nil {
		t.Fatal("out-of-order accepted")
	}
}

func TestNaiveEstimate(t *testing.T) {
	h := &History{}
	_ = h.Record(Observation{Time: 0})
	for d := 1; d <= 50; d++ {
		_ = h.Record(Observation{Time: float64(d), Changed: d%10 == 0})
	}
	est, err := Naive(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Rate-0.1) > 1e-9 {
		t.Fatalf("naive rate %v, want 0.1 (5 changes / 50 days)", est.Rate)
	}
	if est.Lo > est.Rate || est.Hi < est.Rate {
		t.Fatalf("CI [%v,%v] excludes point %v", est.Lo, est.Hi, est.Rate)
	}
}

func TestEstimateErrorsWithoutHistory(t *testing.T) {
	h := &History{}
	if _, err := Naive(h); err != ErrNoHistory {
		t.Fatalf("naive: %v", err)
	}
	if _, err := EP(h); err != ErrNoHistory {
		t.Fatalf("EP: %v", err)
	}
	if _, err := EPIrregular(h); err != ErrNoHistory {
		t.Fatalf("EPIrregular: %v", err)
	}
}

func TestEPFiniteWhenAllChanged(t *testing.T) {
	// A page that changed on every visit: naive saturates at 1/interval,
	// EP must stay finite but exceed the naive rate.
	h := &History{}
	_ = h.Record(Observation{Time: 0})
	for d := 1; d <= 30; d++ {
		_ = h.Record(Observation{Time: float64(d), Changed: true})
	}
	est, err := EP(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(est.Rate, 0) || math.IsNaN(est.Rate) {
		t.Fatalf("EP rate %v", est.Rate)
	}
	nv, _ := Naive(h)
	if est.Rate <= nv.Rate {
		t.Fatalf("EP %v should exceed naive %v for saturated detection", est.Rate, nv.Rate)
	}
}

func TestEPBiasCorrectionBeatsNaive(t *testing.T) {
	// For a page changing faster than the access interval, the naive
	// estimator saturates while EP stays closer to the truth.
	rng := rand.New(rand.NewSource(1))
	const rate = 1.5 // changes/day, visited daily
	var epErr, naiveErr float64
	const trials = 300
	for i := 0; i < trials; i++ {
		h := &History{}
		observe(rng, h, rate, 120)
		ep, err := EP(h)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := Naive(h)
		if err != nil {
			t.Fatal(err)
		}
		epErr += math.Abs(ep.Rate - rate)
		naiveErr += math.Abs(nv.Rate - rate)
	}
	if epErr >= naiveErr {
		t.Fatalf("EP mean error %v not better than naive %v", epErr/trials, naiveErr/trials)
	}
}

func TestEPRecoversModerateRates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, rate := range []float64{0.05, 0.1, 0.3} {
		var sum float64
		const trials = 200
		for i := 0; i < trials; i++ {
			h := &History{}
			observe(rng, h, rate, 200)
			est, err := EP(h)
			if err != nil {
				t.Fatal(err)
			}
			sum += est.Rate
		}
		mean := sum / trials
		if math.Abs(mean-rate)/rate > 0.15 {
			t.Errorf("rate %v: EP mean %v", rate, mean)
		}
	}
}

func TestEPIrregularRecoversWithIrregularVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rate = 0.2
	var sum float64
	const trials = 200
	for i := 0; i < trials; i++ {
		h := &History{}
		_ = h.Record(Observation{Time: 0})
		tt := 0.0
		nextChange := rng.ExpFloat64() / rate
		for tt < 300 {
			tt += 0.5 + 9.5*rng.Float64() // gaps 0.5..10 days
			changed := false
			for nextChange <= tt {
				changed = true
				nextChange += rng.ExpFloat64() / rate
			}
			_ = h.Record(Observation{Time: tt, Changed: changed})
		}
		est, err := EPIrregular(h)
		if err != nil {
			t.Fatal(err)
		}
		sum += est.Rate
	}
	mean := sum / trials
	if math.Abs(mean-rate)/rate > 0.15 {
		t.Fatalf("EPIrregular mean %v, want ~%v", mean, rate)
	}
}

func TestEPIrregularNoChangesFallsBack(t *testing.T) {
	h := &History{}
	_ = h.Record(Observation{Time: 0})
	_ = h.Record(Observation{Time: 10})
	est, err := EPIrregular(h)
	if err != nil {
		t.Fatal(err)
	}
	if est.Rate != 0 {
		t.Fatalf("rate %v for changeless history", est.Rate)
	}
}

func TestEstimateIntervalHelper(t *testing.T) {
	if iv := (Estimate{Rate: 0.25}).Interval(); iv != 4 {
		t.Fatalf("interval %v", iv)
	}
	if iv := (Estimate{}).Interval(); !math.IsInf(iv, 1) {
		t.Fatalf("zero-rate interval %v", iv)
	}
}

func TestEPConfidenceIntervalCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rate = 0.1
	misses := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		h := &History{}
		observe(rng, h, rate, 150)
		est, err := EP(h)
		if err != nil {
			t.Fatal(err)
		}
		if rate < est.Lo || rate > est.Hi {
			misses++
		}
	}
	// 95% nominal coverage; allow generous slack for discretization.
	if misses > trials/5 {
		t.Fatalf("CI missed truth %d/%d times", misses, trials)
	}
}

// epIrregularRate200 is EPIrregular's rate with the bisection run for
// all 200 iterations, as it was before the fixpoint exit.
func epIrregularRate200(h *History) float64 {
	deriv := func(r float64) float64 {
		var d float64
		for i, dt := range h.intervals {
			if dt <= 0 {
				continue
			}
			if h.changed[i] {
				e := math.Exp(-r * dt)
				d += dt * e / (1 - e)
			} else {
				d -= dt
			}
		}
		return d
	}
	lo, hi := 1e-12, 1.0
	for deriv(hi) > 0 {
		hi *= 2
		if hi > 1e15 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if deriv(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestEPIrregularFixpointExitIsExact: stopping the bisection at its
// float64 fixpoint must return the very same rate as running all 200
// iterations, over irregular histories of every shape the crawler
// produces — short and long, slow and fast pages, gaps spanning six
// orders of magnitude, repeated and zero-length intervals.
func TestEPIrregularFixpointExitIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 3000; trial++ {
		h := &History{}
		_ = h.Record(Observation{Time: 0})
		rate := math.Pow(10, -4+6*rng.Float64()) // 1e-4 .. 1e2 changes/day
		scale := math.Pow(10, -3+5*rng.Float64())
		tt := 0.0
		for n := 1 + rng.Intn(400); n > 0; n-- {
			var dt float64
			switch rng.Intn(4) {
			case 0:
				dt = scale // a regular stretch
			case 1:
				dt = scale * rng.ExpFloat64()
			case 2:
				dt = scale * math.Pow(10, 3*rng.Float64())
			}
			tt += dt
			_ = h.Record(Observation{Time: tt, Changed: rng.Float64() < 1-math.Exp(-rate*dt)})
		}
		if h.Detected() == 0 || h.Detected() == h.Accesses() {
			continue // EPIrregular does not bisect these
		}
		est, err := EPIrregular(h)
		if err != nil {
			t.Fatal(err)
		}
		if want := epIrregularRate200(h); est.Rate != want {
			t.Fatalf("trial %d (%d accesses, %d changed): rate %v (%#x), 200-step reference %v (%#x)",
				trial, h.Accesses(), h.Detected(), est.Rate, math.Float64bits(est.Rate), want, math.Float64bits(want))
		}
		checked++
	}
	if checked < 1000 {
		t.Fatalf("only %d histories reached the bisection", checked)
	}
}
