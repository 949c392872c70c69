package freshness

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"
)

func TestOptimalAllocationMeetsBudget(t *testing.T) {
	rates := []float64{0.01, 0.1, 0.5, 2, 10}
	const budget = 3.0
	fs, err := OptimalAllocation(rates, budget)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range fs {
		if f < 0 {
			t.Fatalf("negative frequency %v", f)
		}
		sum += f
	}
	if math.Abs(sum-budget) > 1e-6*budget {
		t.Fatalf("allocated %v, budget %v", sum, budget)
	}
}

func TestOptimalAllocationValidation(t *testing.T) {
	if _, err := OptimalAllocation(nil, 1); err == nil {
		t.Fatal("empty rates accepted")
	}
	if _, err := OptimalAllocation([]float64{1}, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := OptimalAllocation([]float64{math.NaN()}, 1); err == nil {
		t.Fatal("NaN rate accepted")
	}
	if _, err := OptimalAllocation([]float64{-1}, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestOptimalAllocationAllImmutable(t *testing.T) {
	fs, err := OptimalAllocation([]float64{0, 0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if math.Abs(f-1) > 1e-9 {
			t.Fatalf("immutable fallback %v", fs)
		}
	}
}

func TestFigure9ShapeUnimodal(t *testing.T) {
	// The optimal frequency as a function of change rate must rise, peak
	// and then fall — Figure 9's defining shape.
	var rates []float64
	r := 0.01
	for i := 0; i < 200; i++ {
		rates = append(rates, r)
		r *= 1.05
	}
	pts, err := Figure9Curve(rates, float64(len(rates)))
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i, p := range pts {
		if p.F > pts[peak].F {
			peak = i
		}
	}
	if peak == 0 || peak == len(pts)-1 {
		t.Fatalf("no interior peak (peak index %d of %d)", peak, len(pts))
	}
	// Rising before the peak, falling after (allow tiny numeric jitter).
	for i := 1; i <= peak; i++ {
		if pts[i].F < pts[i-1].F-1e-6 {
			t.Fatalf("not rising at %d: %v -> %v", i, pts[i-1].F, pts[i].F)
		}
	}
	for i := peak + 1; i < len(pts); i++ {
		if pts[i].F > pts[i-1].F+1e-6 {
			t.Fatalf("not falling at %d: %v -> %v", i, pts[i-1].F, pts[i].F)
		}
	}
}

func TestVeryFastPagesGetZero(t *testing.T) {
	// The paper's p1/p2 example: with one visit/day of budget for two
	// pages, a page changing every second should be abandoned in favour
	// of the daily-changing page.
	rates := []float64{1, 86400} // changes/day: daily vs every second
	fs, err := OptimalAllocation(rates, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fs[1] != 0 {
		t.Fatalf("hopeless page got frequency %v", fs[1])
	}
	if math.Abs(fs[0]-1) > 1e-6 {
		t.Fatalf("keepable page got %v, want the whole budget", fs[0])
	}
}

func TestOptimalBeatsUniformAndProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rates := make([]float64, 500)
	for i := range rates {
		// Log-uniform rates across 4 decades.
		rates[i] = math.Pow(10, -2+4*rng.Float64())
	}
	const budget = 500.0
	opt, err := OptimalAllocation(rates, budget)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := UniformAllocation(len(rates), budget)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := ProportionalAllocation(rates, budget)
	if err != nil {
		t.Fatal(err)
	}
	fOpt, _ := ExpectedFreshness(rates, opt)
	fUni, _ := ExpectedFreshness(rates, uni)
	fProp, _ := ExpectedFreshness(rates, prop)
	if fOpt < fUni {
		t.Fatalf("optimal %v below uniform %v", fOpt, fUni)
	}
	if fOpt < fProp {
		t.Fatalf("optimal %v below proportional %v", fOpt, fProp)
	}
	// The paper's deeper point: proportional is WORSE than uniform on
	// skewed workloads (it chases hopeless pages).
	if fProp >= fUni {
		t.Fatalf("proportional %v should trail uniform %v on a skewed workload", fProp, fUni)
	}
}

func TestAllocationGainPositive(t *testing.T) {
	rates := []float64{0.01, 0.02, 0.1, 1, 5, 20}
	opt, uni, gain, err := AllocationGain(rates, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opt < uni || gain <= 0 {
		t.Fatalf("opt %v uni %v gain %v", opt, uni, gain)
	}
}

func TestUniformAllocation(t *testing.T) {
	fs, err := UniformAllocation(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if f != 0.5 {
			t.Fatalf("uniform %v", fs)
		}
	}
	if _, err := UniformAllocation(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := UniformAllocation(1, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestProportionalAllocation(t *testing.T) {
	fs, err := ProportionalAllocation([]float64{1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fs[0]-1) > 1e-12 || math.Abs(fs[1]-3) > 1e-12 {
		t.Fatalf("proportional %v", fs)
	}
	// All-zero rates fall back to uniform.
	fs, err = ProportionalAllocation([]float64{0, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fs[0] != 2 || fs[1] != 2 {
		t.Fatalf("zero-rate fallback %v", fs)
	}
	if _, err := ProportionalAllocation([]float64{-1}, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestExpectedFreshnessEdgeCases(t *testing.T) {
	// Immutable page with no visits is always fresh; changing page with
	// no visits is eventually always stale.
	got, err := ExpectedFreshness([]float64{0, 1}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("edge freshness %v", got)
	}
	if _, err := ExpectedFreshness([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ExpectedFreshness(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestMarginalDecreasingInF(t *testing.T) {
	const l = 0.5
	prev := math.Inf(1)
	for _, f := range []float64{0.01, 0.1, 1, 10, 100} {
		m := marginal(l, f)
		if m > prev {
			t.Fatalf("marginal not decreasing at f=%v", f)
		}
		prev = m
	}
	if marginal(0, 1) != 0 {
		t.Fatal("immutable marginal must be 0")
	}
}

func TestOptimalAllocationMatchesSimulatedFreshness(t *testing.T) {
	// End-to-end: the analytic objective value matches a Monte-Carlo
	// simulation of the allocated schedule.
	rates := []float64{0.05, 0.2, 1}
	fs, err := OptimalAllocation(rates, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExpectedFreshness(rates, fs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// Use many page replicas per rate for variance reduction.
	const reps = 400
	var simRates []float64
	var simFreqs []float64
	for i := range rates {
		for r := 0; r < reps; r++ {
			simRates = append(simRates, rates[i])
			simFreqs = append(simFreqs, fs[i])
		}
	}
	got, err := SimulateAvgFreshness(rng, simRates,
		ScheduleVariableInPlace(simFreqs, 400), 50, 400, 150)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("simulated %v, analytic %v", got, want)
	}
}

// referenceOptimalAllocation is OptimalAllocation as it stood before the
// search was rewritten (commit 906ff37), kept verbatim: the nested
// bisection, solving every page at every outer step. It is the
// definition OptimalAllocation's output is held to, bit for bit.
func referenceOptimalAllocation(rates []float64, budget float64) ([]float64, error) {
	if len(rates) == 0 {
		return nil, errors.New("freshness: no rates")
	}
	if budget <= 0 {
		return nil, errors.New("freshness: budget must be positive")
	}
	for _, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, errors.New("freshness: rates must be finite and non-negative")
		}
	}
	total := func(mu float64) (float64, []float64) {
		fs := make([]float64, len(rates))
		var sum float64
		for i, r := range rates {
			f := freqForMultiplier(r, mu, budget)
			fs[i] = f
			sum += f
		}
		return sum, fs
	}
	// The total allocated frequency decreases in mu. Bisect mu so the
	// budget is met. Upper bound for mu: max over pages of the marginal
	// at f->0+, i.e. 1/min positive rate.
	muHi := 0.0
	for _, r := range rates {
		if r > 0 && 1/r > muHi {
			muHi = 1 / r
		}
	}
	if muHi == 0 {
		// All pages are immutable; frequencies are irrelevant. Spread the
		// budget uniformly for determinism.
		fs := make([]float64, len(rates))
		for i := range fs {
			fs[i] = budget / float64(len(rates))
		}
		return fs, nil
	}
	muLo := 0.0 // mu -> 0 allocates as much as each page can absorb
	var fs []float64
	for i := 0; i < 200; i++ {
		mu := (muLo + muHi) / 2
		sum, cand := total(mu)
		fs = cand
		if math.Abs(sum-budget) <= 1e-9*budget {
			break
		}
		if sum > budget {
			muLo = mu
		} else {
			muHi = mu
		}
	}
	// Normalize tiny residual error onto visited pages so the budget
	// constraint holds exactly.
	var sum float64
	for _, f := range fs {
		sum += f
	}
	if sum > 0 {
		scale := budget / sum
		for i := range fs {
			fs[i] *= scale
		}
	}
	return fs, nil
}

// sameBits fails the test unless got and want agree in every bit.
func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frequencies, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: page %d: got %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// randomPopulation draws n rates over `distinct` values spread
// log-uniformly across [10^loExp, 10^hiExp], a `zeros` share of the
// values exactly 0.
func randomPopulation(rng *rand.Rand, n, distinct int, loExp, hiExp, zeros float64) []float64 {
	vals := make([]float64, distinct)
	for i := range vals {
		if rng.Float64() >= zeros {
			vals[i] = math.Pow(10, loExp+(hiExp-loExp)*rng.Float64())
		}
	}
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = vals[rng.Intn(distinct)]
	}
	return rates
}

// crawlRates loads the rate vector one ranking pass of the benchmark's
// crawl_mem run (seed 1999) handed to OptimalAllocation, in page order,
// with its budget: pass 4 (day 15: 9,800 pages, 489 distinct estimated
// rates) or pass 8 (day 40: 9,840 pages, 3,539 distinct). The files are
// gzipped little-endian float64s, budget first.
func crawlRates(t testing.TB, pass int) (rates []float64, budget float64) {
	t.Helper()
	f, err := os.Open(fmt.Sprintf("testdata/crawl_rates_pass%02d.bin.gz", pass))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return vals[1:], vals[0]
}

// matchReference holds OptimalAllocation to the reference on one
// population and returns how many outer steps it gave to the nested
// bisection.
func matchReference(t testing.TB, what string, rates []float64, budget float64) int {
	t.Helper()
	want, werr := referenceOptimalAllocation(rates, budget)
	got, evals, err := optimalAllocation(rates, budget)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, reference's %v", what, err, werr)
	}
	sameBits(t, what, got, want)
	return evals
}

// TestOptimalAllocationMatchesReference is the contract of the rewritten
// search: the same frequencies as the nested bisection, in every bit, on
// seeded random populations (n in [1, 10k], 1..n distinct rates, rates
// 1e-9..1e3 with zeros mixed in, budgets 1e-3..1e3 per page), on the
// regimes that have their own exit or guard, and on what a crawl
// actually passes in.
//
// The populations are drawn up front, in the one RNG sequence, and then
// checked as parallel subtests: the reference is slow and each check
// stands alone.
func TestOptimalAllocationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pops := 240
	if testing.Short() {
		pops = 60
	}
	type population struct {
		what   string
		rates  []float64
		budget float64
	}
	populations := make([]population, pops)
	for p := range populations {
		n := 1 + int(math.Pow(10_000, rng.Float64())) // skewed small: seconds, not minutes
		if p%40 == 0 {
			n = 10_000
		}
		distinct := 1 + rng.Intn(n)
		if p%3 == 0 {
			distinct = 1 + rng.Intn(1+n/10)
		}
		lo, hi := -9.0, 3.0
		if p%2 == 0 { // a crawl-like two-to-four-decade spread
			lo = -3 + 2*rng.Float64()
			hi = lo + 2 + 2*rng.Float64()
		}
		zeros := 0.0
		if p%4 == 1 {
			zeros = 0.3 * rng.Float64()
		}
		rates := randomPopulation(rng, n, distinct, lo, hi, zeros)
		budget := float64(n) * math.Pow(10, -3+6*rng.Float64())
		populations[p] = population{fmt.Sprintf("population %d (n=%d distinct=%d rates 1e%.1f..1e%.1f budget %g)",
			p, n, distinct, lo, hi, budget), rates, budget}
	}
	t.Run("random", func(t *testing.T) {
		for p, pop := range populations {
			t.Run(fmt.Sprintf("%03d", p), func(t *testing.T) {
				t.Parallel()
				matchReference(t, pop.what, pop.rates, pop.budget)
			})
		}
	})

	// Where the nested bisection's own answer is rounding noise (x =
	// rate/f << 1: 630 visits/day/page over rates around 1e-3 and far
	// below), the noise is the contract.
	noisy := randomPopulation(rng, 400, 40, -3.2, -2.8, 0)
	noisy = append(noisy, 1e-9, 1e-7, 1e-5)
	matchReference(t, "cancellation regime", noisy, 630*float64(len(noisy)))

	// The budget falls inside the jump where a thousand equal-rate pages
	// drop from rate/36 to zero together: the total never comes within
	// 1e-9 of it and the outer loop ends on its fixpoint instead.
	jump := make([]float64, 1001)
	for i := range jump {
		jump[i] = 100
	}
	jump[1000] = 0.01
	matchReference(t, "budget inside a jump", jump, 100)

	matchReference(t, "all immutable", []float64{0, 0, 0}, 3)
	matchReference(t, "one page", []float64{0.3}, 2)
	matchReference(t, "one changing page among immutable ones", []float64{0, 0.3, 0}, 0.01)
	matchReference(t, "subnormal rate", []float64{5e-324, 1}, 1)

	for _, pass := range []int{4, 8} {
		rates, budget := crawlRates(t, pass)
		evals := matchReference(t, fmt.Sprintf("crawl pass %d", pass), rates, budget)
		// The point of the rewrite: a crawl's ranking pass leaves the
		// nested bisection a handful of its 33-40 outer steps (one, as
		// measured; every step before the rewrite).
		if evals > 5 {
			t.Errorf("crawl pass %d: %d outer steps went to the nested bisection, want <= 5", pass, evals)
		}
	}
}

// FuzzOptimalAllocation: the same property on whatever floats the fuzzer
// assembles — subnormal and astronomically large rates and budgets
// included. Populations stay small because the reference is slow.
func FuzzOptimalAllocation(f *testing.F) {
	enc := func(rates ...float64) []byte {
		b := make([]byte, 0, 8*len(rates))
		for _, r := range rates {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r))
		}
		return b
	}
	f.Add(enc(0.05, 0.05, 0.1, 14.65, 0.05, 2.5), 6.0)
	f.Add(enc(1e-3, 1e-3, 1e-9), 1890.0)
	f.Add(enc(100, 100, 100, 0.01), 0.4)
	f.Add(enc(0, 0), 1.0)
	f.Add(enc(5e-324, 1e300, 1), 1e-300)
	f.Fuzz(func(t *testing.T, data []byte, budget float64) {
		if !(budget > 0) || math.IsInf(budget, 0) {
			t.Skip()
		}
		var rates []float64
		for ; len(data) >= 8 && len(rates) < 48; data = data[8:] {
			r := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			rates = append(rates, r)
		}
		if len(rates) == 0 {
			t.Skip()
		}
		matchReference(t, fmt.Sprintf("rates %v budget %v", rates, budget), rates, budget)
	})
}

// BenchmarkOptimalAllocation solves a crawl's day-40 ranking pass
// (9,840 pages, 3,539 distinct rates, 10k visits/day). ref-evals/op is
// the number of outer steps that ran the nested bisection.
func BenchmarkOptimalAllocation(b *testing.B) {
	rates, budget := crawlRates(b, 8)
	b.Run("pages=10k,distinct=3k", func(b *testing.B) {
		b.ReportAllocs()
		evals := 0
		for b.Loop() {
			_, n, err := optimalAllocation(rates, budget)
			if err != nil {
				b.Fatal(err)
			}
			evals += n
		}
		b.ReportMetric(float64(evals)/float64(b.N), "ref-evals/op")
	})
}
