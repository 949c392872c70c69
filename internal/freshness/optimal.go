package freshness

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// This file implements the variable-revisit-frequency optimization of
// Figure 9 ([CGM99b]): given pages with change rates lambda_i and a total
// revisit-frequency budget B (pages the crawler can fetch per unit time),
// choose per-page revisit frequencies f_i maximizing the collection's
// time-average freshness
//
//	(1/N) * sum_i FBar(lambda_i / f_i)   subject to  sum_i f_i = B.
//
// The objective is concave in each f_i, so the optimum equalizes marginal
// freshness: there is a multiplier mu such that for every visited page
// d/df FBar(lambda_i/f_i) = mu, and pages whose marginal value at f = 0+
// (which is 1/lambda_i) does not reach mu are never visited at all. This
// produces the paper's counter-intuitive Figure 9 shape: optimal revisit
// frequency *rises* with change frequency for slow pages and *falls* for
// fast pages — pages that change too often are not worth refreshing.

// marginal returns d/df of FBar(lambda/f) at the given f > 0:
//
//	(1/lambda)*(1 - exp(-lambda/f)) - (1/f)*exp(-lambda/f).
func marginal(lambda, f float64) float64 {
	if lambda == 0 {
		return 0 // a never-changing page gains nothing from revisits
	}
	x := lambda / f
	e := math.Exp(-x)
	return (1-e)/lambda - e/f
}

// freqForMultiplier inverts the marginal condition: the f > 0 with
// marginal(lambda, f) = mu, or 0 when even f -> 0+ cannot reach mu
// (marginal at 0+ is 1/lambda). The marginal is strictly decreasing in f,
// so bisection applies.
func freqForMultiplier(lambda, mu, fMax float64) float64 {
	if lambda == 0 || mu >= 1/lambda {
		return 0
	}
	lo, hi := 0.0, fMax
	// Grow hi until the marginal falls below mu (it tends to 0 as f
	// grows, so this terminates).
	for marginal(lambda, hi) > mu {
		hi *= 2
		if hi > 1e18 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if marginal(lambda, mid) > mu {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// OptimalAllocation returns per-page revisit frequencies maximizing the
// collection's time-average freshness subject to sum(f) = budget.
// Frequencies and budget share whatever time unit the rates use
// (typically visits/day against changes/day).
//
// The result is defined by a nested bisection: an outer one on the
// multiplier mu (up to 200 steps, stopping once the allocated total is
// within 1e-9 of the budget) around an inner one per page
// (freqForMultiplier), with the last step's frequencies scaled onto the
// budget. Callers depend on that result to the bit — a crawler's idle
// clock jumps to a due time derived from it, and that float lands in the
// stored records — so the search below is arranged to return exactly it
// while doing far less work:
//
//   - The inner solve depends only on (rate, mu), so it runs once per
//     distinct rate (estimated rates are heavily quantised) and the
//     total is still accumulated over pages in their original order.
//   - Every outer step but the last contributes one comparison of the
//     total against the budget. fastTotal decides it from a closed-form
//     Newton inverse of the marginal condition together with a bound on
//     how far the nested bisection's own total can lie from that value;
//     the bisection itself (refTotal) runs only for a step the bound
//     cannot decide, and for the final mu, whose frequencies are the
//     output.
func OptimalAllocation(rates []float64, budget float64) ([]float64, error) {
	fs, _, err := optimalAllocation(rates, budget)
	return fs, err
}

// optimalAllocation is OptimalAllocation, also reporting how many outer
// steps were evaluated by the nested bisection (refTotal).
func optimalAllocation(rates []float64, budget float64) (fs []float64, refEvals int, err error) {
	if len(rates) == 0 {
		return nil, 0, errors.New("freshness: no rates")
	}
	if budget <= 0 {
		return nil, 0, errors.New("freshness: budget must be positive")
	}
	for _, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, 0, errors.New("freshness: rates must be finite and non-negative")
		}
	}
	fs = make([]float64, len(rates))
	a := newAllocation(rates, budget)
	// The total allocated frequency decreases in mu. Bisect mu so the
	// budget is met. Upper bound for mu: max over pages of the marginal
	// at f->0+, i.e. 1/min positive rate.
	muHi := 0.0
	for _, r := range a.uniq {
		if r > 0 {
			muHi = 1 / r // ascending: the first positive rate is the smallest
			break
		}
	}
	if muHi == 0 {
		// All pages are immutable; frequencies are irrelevant. Spread the
		// budget uniformly for determinism.
		for i := range fs {
			fs[i] = budget / float64(len(rates))
		}
		return fs, 0, nil
	}
	muLo := 0.0 // mu -> 0 allocates as much as each page can absorb
	var mu, refMu float64
	refValid := false // a.fref holds refTotal(refMu)
	for i := 0; i < 200; i++ {
		mu = (muLo + muHi) / 2
		// Once the midpoint rounds onto an end of the bracket no later
		// step can move it: whichever way the comparison goes, every
		// remaining step repeats this one, so its frequencies are final.
		settled := mu == muLo || mu == muHi
		if !settled {
			if sum, band, ok := a.fastTotal(mu); ok {
				// Written so that a NaN or infinite sum or band decides
				// nothing and falls through to the reference.
				tol := band + 1.0001e-9*budget
				if sum-budget > tol {
					muLo = mu
					continue
				}
				if sum-budget < -tol {
					muHi = mu
					continue
				}
			}
		}
		sum := a.refTotal(mu)
		refMu, refValid = mu, true
		refEvals++
		if settled || math.Abs(sum-budget) <= 1e-9*budget {
			break
		}
		if sum > budget {
			muLo = mu
		} else {
			muHi = mu
		}
	}
	if !refValid || refMu != mu {
		a.refTotal(mu)
		refEvals++
	}
	// Normalize tiny residual error onto visited pages so the budget
	// constraint holds exactly.
	var sum float64
	for i, k := range a.idx {
		fs[i] = a.fref[k]
		sum += fs[i]
	}
	if sum > 0 {
		scale := budget / sum
		for i := range fs {
			fs[i] *= scale
		}
	}
	return fs, refEvals, nil
}

// allocation is the working state of one OptimalAllocation call: the
// pages grouped by distinct rate, and per distinct rate the fast
// evaluator's warm start and the reference's latest frequencies.
type allocation struct {
	budget float64
	uniq   []float64 // distinct rates, ascending
	count  []float64 // pages per distinct rate
	idx    []int32   // page -> index into uniq
	x      []float64 // fastTotal's last root x = rate/f per rate (0: none yet)
	fref   []float64 // refTotal's frequency per rate
}

func newAllocation(rates []float64, budget float64) *allocation {
	uniq := slices.Clone(rates)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	a := &allocation{
		budget: budget,
		uniq:   uniq,
		count:  make([]float64, len(uniq)),
		idx:    make([]int32, len(rates)),
		x:      make([]float64, len(uniq)),
		fref:   make([]float64, len(uniq)),
	}
	for i, r := range rates {
		k, _ := slices.BinarySearch(uniq, r)
		a.idx[i] = int32(k)
		a.count[k]++
	}
	return a
}

// refTotal is one outer step of the defining nested bisection: the inner
// bisection per distinct rate, summed over pages in their given order —
// the same additions, in the same order, as solving every page.
func (a *allocation) refTotal(mu float64) float64 {
	for k, r := range a.uniq {
		a.fref[k] = freqForMultiplier(r, mu, a.budget)
	}
	var sum float64
	for _, k := range a.idx {
		sum += a.fref[k]
	}
	return sum
}

// gErr bounds, with a factor of four to spare, the floating-point error
// of the two evaluations fastTotal's band has to cover. With x =
// lambda/f the marginal condition reads g(x) = mu*lambda for the one
// universal function g(x) = 1 - (1+x)*exp(-x). marginal computes
// lambda*marginal(lambda, f) = (1-e) - x*e with e = fl(exp(-fl(x))):
// math.Exp is within 2 ulp (measured 1.6), which perturbs the value by
// at most (1+x)*e*(4+x)*u <= 4.2u (u = 2^-53), and the division,
// subtraction and quotient roundings add at most 2(1-e)u + x*e*u + g*u
// <= 3.4u: under 8u absolute for every x > 0. invG's own evaluation of g
// and its rounding of mu*lambda come to the same again. Note that this
// is an absolute error on a quantity of size g(x) ~ x^2/2: for x << 1
// the defining bisection resolves f only to a relative 2*gErr/x^2 —
// noise below x ~ 1e-7 — and it is that noise, not the true optimum,
// that has to be reproduced.
const gErr = 0x1p-47

// fastTotal evaluates the allocated total at mu without the nested
// bisection, as sum plus a band with |refTotal(mu) - sum| <= band. ok is
// false when some visited page lies where no such bound is available.
//
// Per distinct rate, invG returns x with |g(x) - mu*lambda| <= resid.
// The inner bisection ends on adjacent floats lo < hi whose computed
// marginals straddle mu, so g(lambda/lo) > mu*lambda - gErr and
// g(lambda/hi) <= mu*lambda + gErr: its result lies between
// lambda/(x+dx) and lambda/(x-dx) once g moves by at least gErr+resid
// over dx either side of x. g' = x*exp(-x) stays above 0.58 of its
// value at x while dx <= min(x,1)/4, so dx = 2*(gErr+resid)/g'(x) does
// it, and the frequency is then within 1.5*dx/x of lambda/x. Outside
// that condition (x so small that the bisection's answer is rounding
// noise, or mu*lambda within 1e-12 of 1, where exp(-x) has no digits
// left), for mu*lambda below 2^-46 (the same noise regime), or for a
// frequency beyond 1e15 (the bisection stops widening its bracket at
// 1e18), there is no bound and the step is the reference's.
//
// The remaining terms of the band: both sums round by at most one u per
// addition; freqForMultiplier's midpoint and lambda/x round by a few u;
// and a bisection that starts from max(budget, 2e18) and has not met
// adjacent floats after 200 halvings is off by at most 2^-200 of that.
func (a *allocation) fastTotal(mu float64) (sum, band float64, ok bool) {
	for k, lambda := range a.uniq {
		if lambda == 0 || mu >= 1/lambda {
			continue // freqForMultiplier's own test: not visited at this mu
		}
		x, slope, resid, solved := invG(mu*lambda, a.x[k])
		if !solved {
			return 0, 0, false
		}
		a.x[k] = x
		dx := 2 * (gErr + resid) / slope
		f := lambda / x
		if !(dx <= math.Min(x, 1)/4 && f <= 1e15) {
			return 0, 0, false
		}
		w := a.count[k] * f
		sum += w
		band += w * 1.5 * dx / x
	}
	n := float64(len(a.idx))
	band += sum*(n+float64(len(a.uniq))+16)*0x1p-52 + n*math.Max(a.budget, 2e18)*0x1p-199
	return sum, band, true
}

// invG solves g(x) = t, g(x) = 1 - (1+x)*exp(-x), by Newton's method
// started from x0 (a previous root for a nearby t; 0 for none) and
// safeguarded by bisection on the bracket its own evaluations establish.
// It returns the root, g' there (to within 2%), and a bound on
// |g(root) - t| excluding rounding (which gErr covers): the last Newton
// step s leaves a remainder of at most s^2/2, the second derivative
// (1-x)*exp(-x) never exceeding 1. ok is false outside
// 2^-46 <= t <= 1-1e-12 or without convergence.
func invG(t, x0 float64) (x, slope, resid float64, ok bool) {
	if !(t >= 0x1p-46 && t <= 1-1e-12) {
		return 0, 0, 0, false
	}
	x = x0
	if !(x > 0) {
		// g(x) = x^2/2 - x^3/3 + ... for small x; 1-(1+x)exp(-x) -> 1 for
		// large x. Either start is only a start.
		if t < 0.25 {
			x = math.Sqrt(2 * t)
			x *= 1 + x/3
		} else {
			l := -math.Log1p(-t)
			x = l + math.Log1p(l)
		}
	}
	lo, hi := 0.0, math.Inf(1)
	for i := 0; i < 100; i++ {
		e := math.Exp(-x)
		slope = x * e
		r := 1 - (1+x)*e - t
		s := r / slope
		if s*s <= 2*gErr && math.Abs(s) <= x/64 {
			return x - s, slope, s * s / 2, true
		}
		if r > 0 {
			hi = x
		} else {
			lo = x
		}
		next := x - s
		if !(next > lo && next < hi) { // also a NaN step
			if math.IsInf(hi, 1) {
				next = 2 * x
			} else {
				next = (lo + hi) / 2
			}
		}
		x = next
	}
	return 0, 0, 0, false
}

// UniformAllocation spreads the budget equally: the fixed-frequency
// policy of Section 4, natural for a batch-mode crawler.
func UniformAllocation(n int, budget float64) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("freshness: need at least one page")
	}
	if budget <= 0 {
		return nil, errors.New("freshness: budget must be positive")
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = budget / float64(n)
	}
	return fs, nil
}

// ProportionalAllocation assigns frequency proportional to change rate —
// the intuitive policy the paper warns about. Pages with zero rate get
// zero frequency; if all rates are zero it falls back to uniform.
func ProportionalAllocation(rates []float64, budget float64) ([]float64, error) {
	if len(rates) == 0 {
		return nil, errors.New("freshness: no rates")
	}
	if budget <= 0 {
		return nil, errors.New("freshness: budget must be positive")
	}
	var sum float64
	for _, r := range rates {
		if r < 0 {
			return nil, errors.New("freshness: negative rate")
		}
		sum += r
	}
	if sum == 0 {
		return UniformAllocation(len(rates), budget)
	}
	fs := make([]float64, len(rates))
	for i, r := range rates {
		fs[i] = budget * r / sum
	}
	return fs, nil
}

// ExpectedFreshness returns the collection's time-average freshness under
// the given per-page frequencies: mean over pages of FBar(rate/f), where
// a page with f = 0 contributes its never-refreshed freshness (1 for an
// immutable page, 0 for a changing page, since an unrefreshed copy of a
// changing page is eventually stale forever).
func ExpectedFreshness(rates, freqs []float64) (float64, error) {
	if len(rates) != len(freqs) {
		return 0, errors.New("freshness: length mismatch")
	}
	if len(rates) == 0 {
		return 0, errors.New("freshness: no pages")
	}
	var sum float64
	for i, r := range rates {
		f := freqs[i]
		switch {
		case r == 0:
			sum += 1
		case f <= 0:
			// Never revisited: fresh only until the first change; the
			// long-run time average is 0.
		default:
			sum += FBar(r / f)
		}
	}
	return sum / float64(len(rates)), nil
}

// Figure9Curve solves the allocation for a workload and returns its
// (lambda, f*) pairs sorted by lambda: the curve of Figure 9. rates
// defines the workload (the collection's rate distribution); budget is
// the total revisit frequency. There is one point per page, so pages
// sharing a rate repeat a point.
func Figure9Curve(rates []float64, budget float64) ([]Point, error) {
	fs, err := OptimalAllocation(rates, budget)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(rates))
	for i := range rates {
		pts[i] = Point{T: rates[i], F: fs[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	return pts, nil
}

// AllocationGain compares the optimal allocation's freshness to the
// uniform allocation's on the same workload, returning (optimal, uniform,
// relative gain). The paper reports gains of 10%-23% ([CGM99b]).
func AllocationGain(rates []float64, budget float64) (opt, uni, gain float64, err error) {
	of, err := OptimalAllocation(rates, budget)
	if err != nil {
		return 0, 0, 0, err
	}
	uf, err := UniformAllocation(len(rates), budget)
	if err != nil {
		return 0, 0, 0, err
	}
	opt, err = ExpectedFreshness(rates, of)
	if err != nil {
		return 0, 0, 0, err
	}
	uni, err = ExpectedFreshness(rates, uf)
	if err != nil {
		return 0, 0, 0, err
	}
	if uni > 0 {
		gain = (opt - uni) / uni
	}
	return opt, uni, gain, nil
}
