package changefreq

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceEPIrregular is EPIrregular as it was before the certified
// steps: every step of the bisection evaluates the score. EPIrregular
// must return its bits.
func referenceEPIrregular(h *History) (Estimate, error) {
	if h.n == 0 {
		return Estimate{}, ErrNoHistory
	}
	if h.detected == 0 {
		// MLE is r = 0; report the one-sided interval from Naive.
		return Naive(h)
	}
	allChanged := h.detected == h.n
	// dL/dr = sum_changed dt*exp(-r dt)/(1-exp(-r dt)) - sum_unchanged dt.
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
	var rate float64
	if allChanged {
		// Likelihood increases without bound; fall back to the
		// bias-reduced regular-interval form on the mean interval.
		return EP(h)
	}
	lo, hi := 1e-12, 1.0
	for deriv(hi) > 0 {
		hi *= 2
		if hi > 1e15 {
			break
		}
	}
	// Bisect to the float64 fixpoint. An iteration that moves neither
	// end (mid has rounded onto the end it replaces) would repeat
	// unchanged forever, so stopping there returns the same bits as
	// running out the 200-iteration cap — after about 52 + log2(hi/rate)
	// iterations, each of which costs an Exp per changed interval.
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if deriv(mid) > 0 {
			if mid == lo {
				break
			}
			lo = mid
		} else {
			if mid == hi {
				break
			}
			hi = mid
		}
	}
	rate = (lo + hi) / 2
	pLo, pHi := wilson(h.detected, h.n, 1.96)
	iMean := h.Span() / float64(h.n)
	ciLo := -math.Log(1-pLo) / iMean
	ciHi := math.Inf(1)
	if pHi < 1 {
		ciHi = -math.Log(1-pHi) / iMean
	}
	return Estimate{Rate: rate, Lo: ciLo, Hi: ciHi, Samples: h.n, Detected: h.detected}, nil
}

// sameBits reports whether two estimates are equal field by field, to
// the bit (so NaN equals NaN and 0 differs from -0).
func sameBits(a, b Estimate) bool {
	f := math.Float64bits
	return f(a.Rate) == f(b.Rate) && f(a.Lo) == f(b.Lo) && f(a.Hi) == f(b.Hi) &&
		a.Samples == b.Samples && a.Detected == b.Detected
}

// matchReference checks epIrregular against the reference on h and
// returns its exact evaluations.
func matchReference(t testing.TB, name string, h *History) int {
	t.Helper()
	got, evals, err := epIrregular(h)
	want, werr := referenceEPIrregular(h)
	if (err == nil) != (werr == nil) || !sameBits(got, want) {
		t.Fatalf("%s (%d accesses, %d changed): got %+v (rate %#x), %v; reference %+v (rate %#x), %v",
			name, h.Accesses(), h.Detected(), got, math.Float64bits(got.Rate), err,
			want, math.Float64bits(want.Rate), werr)
	}
	return evals
}

// crawlHistory is a history like the ones the incremental crawler
// builds: n revisits of a page changing at rate (per day), at an
// interval that the estimator re-plans every few visits and the
// scheduler jitters around.
func crawlHistory(rng *rand.Rand, n int, rate float64) *History {
	h := &History{}
	_ = h.Record(Observation{Time: 0})
	t := 0.0
	interval := math.Pow(10, -1+2*rng.Float64())
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			interval *= math.Pow(2, rng.Float64()*2-1)
		}
		dt := interval * (0.5 + rng.Float64())
		t += dt
		_ = h.Record(Observation{Time: t, Changed: rng.Float64() < 1-math.Exp(-rate*dt)})
	}
	return h
}

// crawlHistories returns count crawl-like histories of n intervals each
// that reach the bisection (some but not all intervals changed).
func crawlHistories(seed int64, count, n int) []*History {
	rng := rand.New(rand.NewSource(seed))
	var out []*History
	for len(out) < count {
		h := crawlHistory(rng, n, math.Pow(10, -2.5+3*rng.Float64()))
		if h.Detected() > 0 && h.Detected() < h.Accesses() {
			out = append(out, h)
		}
	}
	return out
}

// TestEPIrregularMatchesReference: the certified steps change no bit of
// the result, over crawl-like histories and over wilder shapes (rates
// and scales over ten orders of magnitude, gaps spanning six, repeated
// and zero-length intervals).
func TestEPIrregularMatchesReference(t *testing.T) {
	for _, n := range []int{2, 3, 8, 32, 128, 400} {
		for i, h := range crawlHistories(int64(n), 300, n) {
			matchReference(t, fmt.Sprintf("crawl n=%d #%d", n, i), h)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		h := &History{}
		_ = h.Record(Observation{Time: 0})
		rate := math.Pow(10, -6+10*rng.Float64())
		scale := math.Pow(10, -6+10*rng.Float64())
		tt := 0.0
		for n := 1 + rng.Intn(200); n > 0; n-- {
			var dt float64
			switch rng.Intn(4) {
			case 0:
				dt = scale
			case 1:
				dt = scale * rng.ExpFloat64()
			case 2:
				dt = scale * math.Pow(10, 6*rng.Float64()-3)
			}
			tt += dt
			_ = h.Record(Observation{Time: tt, Changed: rng.Float64() < 1-math.Exp(-rate*dt)})
		}
		matchReference(t, fmt.Sprintf("wild trial %d", trial), h)
	}
}

// TestEPIrregularExactEvalsOnCrawlHistories caps how often a bisecting
// call still evaluates the exact score on crawl-like histories. The
// reference evaluates it at every step, about 57 times per call; a
// certificate that stopped proving its brackets would fall back to that
// and fail here.
func TestEPIrregularExactEvalsOnCrawlHistories(t *testing.T) {
	for _, n := range []int{8, 32, 128} {
		total, worst := 0, 0
		hs := crawlHistories(int64(100+n), 500, n)
		for i, h := range hs {
			evals := matchReference(t, fmt.Sprintf("n=%d #%d", n, i), h)
			total += evals
			worst = max(worst, evals)
		}
		mean := float64(total) / float64(len(hs))
		t.Logf("n=%d: %.2f exact evaluations per call, at most %d", n, mean, worst)
		if mean > 15 || worst > 24 {
			t.Errorf("n=%d: %.2f exact evaluations per call (at most %d), want <= 15 (at most 24)", n, mean, worst)
		}
	}
}

// historyBytes encodes a history for FuzzEPIrregular: per interval, the
// float64 bits of dt and a changed byte.
func historyBytes(dts []float64, changed []bool) []byte {
	var b []byte
	for i, dt := range dts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(dt))
		c := byte(0)
		if changed[i] {
			c = 1
		}
		b = append(b, c)
	}
	return b
}

// FuzzEPIrregular checks EPIrregular bit for bit against the reference
// bisection on arbitrary histories. Intervals are the input's float64s
// (made non-negative; a history whose times stop being finite ends
// there).
func FuzzEPIrregular(f *testing.F) {
	seed := func(dts []float64, changed ...bool) { f.Add(historyBytes(dts, changed)) }
	seed([]float64{1, 1, 1, 1, 1, 1}, true, false, true, false, false, true) // equal intervals
	seed([]float64{0, 1, 0, 2, 0.5, 0}, true, true, false, true, false, false)
	seed([]float64{1e-9, 1e6, 1e-9}, true, false, true)            // tiny r*dt
	seed([]float64{1, 1000, 1e-3, 1e-3}, true, true, false, false) // huge r*dt: exp underflows
	seed([]float64{2.5, 1, 1, 1}, true, false, false, false)       // a single changed interval
	seed([]float64{1e-20, 1e-20, 1e-20}, true, true, false)        // root beyond the 1e15 cap
	seed([]float64{0.3, 7, 1.2, 0.9, 3.3, 0.1, 12}, false, true, true, false, true, false, true)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &History{}
		_ = h.Record(Observation{Time: 0})
		tt := 0.0
		for ; len(data) >= 9; data = data[9:] {
			dt := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			if math.IsNaN(dt) || math.IsInf(tt+dt, 0) {
				break
			}
			tt += dt
			_ = h.Record(Observation{Time: tt, Changed: data[8]&1 == 1})
		}
		matchReference(t, "fuzz", h)
	})
}

// BenchmarkEPIrregular estimates crawl-like histories of 8, 32 and 128
// intervals. exact-evals/op is how often the bisection still ran the
// exact score per call (the reference: every step, about 57).
func BenchmarkEPIrregular(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("intervals=%d", n), func(b *testing.B) {
			hs := crawlHistories(int64(n), 64, n)
			evals := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, e, err := epIrregular(hs[i%len(hs)])
				if err != nil {
					b.Fatal(err)
				}
				evals += e
			}
			b.ReportMetric(float64(evals)/float64(b.N), "exact-evals/op")
		})
	}
}
