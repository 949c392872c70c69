// Package changefreq implements the change-frequency estimators the
// paper's UpdateModule uses to decide revisit frequencies (Section 5.3,
// [CGM99a]):
//
//   - EP, a Poisson-model estimator with a confidence interval, based on
//     the count of *detected* changes over periodic accesses. Because a
//     crawler only detects whether a page changed between visits — not
//     how many times (Figure 1(a)) — the naive count/period ratio
//     underestimates fast pages; EP corrects the bias.
//
//   - EB, a Bayesian estimator that categorizes pages into frequency
//     classes (e.g. "changes weekly" vs "changes monthly") and maintains
//     a posterior over classes from the observed change history.
//
// Both consume the same observation stream: (access time, changed?).
package changefreq

import (
	"errors"
	"math"
)

// Observation records one crawler access to a page.
type Observation struct {
	// Time is the access instant, in days (or any consistent unit).
	Time float64
	// Changed reports whether the page's checksum differed from the
	// previous access. The first access of a page carries Changed=false.
	Changed bool
}

// History accumulates a page's access history in the compact form the
// estimators need: the number of accesses, the number of accesses at
// which a change was detected, and the elapsed monitoring span. It also
// retains per-interval data for the Bayesian estimator.
type History struct {
	n        int     // accesses after the first
	detected int     // accesses that detected a change
	first    float64 // first access time
	last     float64 // most recent access time
	// intervals and changed record, per access after the first, the gap
	// since the previous access and whether a change was detected.
	intervals []float64
	changed   []bool
	valid     bool // true once the first access is recorded
}

// Record appends an access. Accesses must be recorded in time order.
func (h *History) Record(obs Observation) error {
	if !h.valid {
		h.first = obs.Time
		h.last = obs.Time
		h.valid = true
		return nil
	}
	if obs.Time < h.last {
		return errors.New("changefreq: observations out of order")
	}
	dt := obs.Time - h.last
	h.last = obs.Time
	h.n++
	h.intervals = append(h.intervals, dt)
	h.changed = append(h.changed, obs.Changed)
	if obs.Changed {
		h.detected++
	}
	return nil
}

// Accesses returns the number of inter-access intervals observed.
func (h *History) Accesses() int { return h.n }

// Detected returns the number of intervals in which a change was
// detected.
func (h *History) Detected() int { return h.detected }

// Last returns the most recent access time (zero before any access).
func (h *History) Last() (float64, bool) { return h.last, h.valid }

// Span returns the elapsed monitoring time.
func (h *History) Span() float64 {
	if !h.valid {
		return 0
	}
	return h.last - h.first
}

// Estimate is a point estimate of a page's change rate with a confidence
// interval, in changes per unit time.
type Estimate struct {
	Rate     float64
	Lo, Hi   float64 // confidence interval bounds
	Samples  int     // intervals used
	Detected int     // changes detected
}

// Interval returns the estimated mean change interval (1/Rate), or +Inf
// when no changes were detected.
func (e Estimate) Interval() float64 {
	if e.Rate <= 0 {
		return math.Inf(1)
	}
	return 1 / e.Rate
}

// ErrNoHistory reports an estimate requested before any intervals were
// observed.
var ErrNoHistory = errors.New("changefreq: no access intervals recorded")

// Naive estimates the rate as detected/span — the Section 3.1 method
// ("the page changed 5 times in 50 days: interval 10 days"). It is biased
// low for pages that change faster than the access frequency, since at
// most one change per access is detectable.
func Naive(h *History) (Estimate, error) {
	if h.n == 0 {
		return Estimate{}, ErrNoHistory
	}
	span := h.Span()
	if span <= 0 {
		return Estimate{}, ErrNoHistory
	}
	rate := float64(h.detected) / span
	lo, hi := poissonCountCI(h.detected, span)
	return Estimate{Rate: rate, Lo: lo, Hi: hi, Samples: h.n, Detected: h.detected}, nil
}

// EP is the bias-corrected Poisson estimator of [CGM99a] for regular
// access intervals. With n intervals of mean length I and X detected
// changes, the detection probability per interval is p = 1 - exp(-r*I),
// so the MLE is r = -log(1 - X/n)/I; the bias-reduced form used here is
//
//	r = -log((n - X + 0.5) / (n + 0.5)) / I,
//
// which stays finite when every access detected a change (X = n), the
// common case for hot com pages visited daily (Figure 2's first bar).
func EP(h *History) (Estimate, error) {
	if h.n == 0 {
		return Estimate{}, ErrNoHistory
	}
	span := h.Span()
	if span <= 0 {
		return Estimate{}, ErrNoHistory
	}
	iMean := span / float64(h.n)
	n := float64(h.n)
	x := float64(h.detected)
	rate := -math.Log((n-x+0.5)/(n+0.5)) / iMean
	if rate <= 0 {
		rate = 0 // avoid -0 when no changes were detected
	}
	// Confidence interval: Wilson interval on the detection probability
	// p = X/n, transformed through r = -log(1-p)/I. The transform is
	// monotone increasing in p.
	pLo, pHi := wilson(h.detected, h.n, 1.96)
	lo := -math.Log(1-pLo) / iMean
	if lo <= 0 {
		lo = 0
	}
	hi := math.Inf(1)
	if pHi < 1 {
		hi = -math.Log(1-pHi) / iMean
	}
	return Estimate{Rate: rate, Lo: lo, Hi: hi, Samples: h.n, Detected: h.detected}, nil
}

// EPIrregular generalizes EP to irregular access intervals by maximizing
// the exact likelihood sum over intervals:
//
//	L(r) = sum_{changed i} log(1 - exp(-r*dt_i)) - sum_{unchanged i} r*dt_i.
//
// The incremental crawler's variable-frequency revisits produce exactly
// such irregular histories.
//
// The rate is defined by a bisection on the sign of the computed score
// dL/dr (score): bracket [1e-12, hi] with hi doubled from 1 while the
// score is positive (up to 1e15), then halved to the float64 fixpoint.
// Callers depend on that result to the bit — it becomes a revisit time,
// which lands in stored records — but most steps never evaluate the
// score: certify proves, once per call, two rates p < q with the
// computed score's sign known at every rate outside them, and a step
// whose midpoint is at or below p (at or above q) takes the branch that
// sign dictates. Only the steps in between, and every step when no
// proof was found, run the exact sum.
func EPIrregular(h *History) (Estimate, error) {
	est, _, err := epIrregular(h)
	return est, err
}

// epIrregular is EPIrregular, also reporting how many times the
// bisection evaluated the exact score.
func epIrregular(h *History) (est Estimate, exactEvals int, err error) {
	if h.n == 0 {
		return Estimate{}, 0, ErrNoHistory
	}
	if h.detected == 0 {
		// MLE is r = 0; report the one-sided interval from Naive.
		est, err = Naive(h)
		return est, 0, err
	}
	if h.detected == h.n {
		// Likelihood increases without bound; fall back to the
		// bias-reduced regular-interval form on the mean interval.
		est, err = EP(h)
		return est, 0, err
	}
	p, q := 0.0, math.Inf(1)
	if ep, err := EP(h); err == nil {
		p, q = h.certify(ep.Rate)
	}
	positive := func(r float64) bool {
		switch {
		case r <= p:
			return true
		case r >= q:
			return false
		}
		exactEvals++
		return h.score(r) > 0
	}
	lo, hi := 1e-12, 1.0
	for positive(hi) {
		hi *= 2
		if hi > 1e15 {
			break
		}
	}
	// Bisect to the float64 fixpoint. An iteration that moves neither
	// end (mid has rounded onto the end it replaces) would repeat
	// unchanged forever, so stopping there returns the same bits as
	// running out the 200-iteration cap — after about 52 + log2(hi/rate)
	// iterations.
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if positive(mid) {
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
	rate := (lo + hi) / 2
	pLo, pHi := wilson(h.detected, h.n, 1.96)
	iMean := h.Span() / float64(h.n)
	ciLo := -math.Log(1-pLo) / iMean
	ciHi := math.Inf(1)
	if pHi < 1 {
		ciHi = -math.Log(1-pHi) / iMean
	}
	return Estimate{Rate: rate, Lo: ciLo, Hi: ciHi, Samples: h.n, Detected: h.detected}, exactEvals, nil
}

// score is the computed dL/dr at r,
//
//	sum_changed dt*exp(-r dt)/(1-exp(-r dt)) - sum_unchanged dt,
//
// summed in interval order. Its sign at each bisection step defines
// EPIrregular's result, so these operations, in this order, are part of
// the definition.
func (h *History) score(r float64) float64 {
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

// expSlack and expTiny bound, with room to spare, how far math.Exp(-x)
// can lie from e^-x: a relative error of a few ulp (internal/freshness
// measured 1.6; 2^-47 covers two errors of 8 ulp each and a rounding)
// plus an absolute 2^-1060 for results in the subnormal range, where no
// relative bound holds.
const (
	expSlack = 0x1p-47
	expTiny  = 0x1p-1060
)

// scoreBound is score evaluated with every exp(-r*dt) moved to the edge
// of its error band: down for a lower bound, up for an upper one. The
// result bounds score at every r' <= r (lower) or r' >= r (upper),
// assuming nothing of math.Exp beyond its accuracy — in particular not
// that it is monotone:
//
//   - float multiplication rounds monotonically, so r' <= r gives
//     fl(r'*dt) <= fl(r*dt) = x, and the true e^-x is decreasing, so
//     score's exp at r' is at least e^-x less its error, which is at
//     least Exp(-x)*(1-expSlack) - expTiny;
//   - score combines its exps with correctly rounded operations, each
//     monotone in each operand — dt*e rises with e, 1-e falls, the
//     quotient rises with its numerator and falls with its positive
//     denominator, and each addition to the running sum rises with
//     both — so replacing every exp by a smaller one can only lower the
//     computed sum, operation by operation, rounding included.
//
// The upper bound mirrors this. Where the band reaches 1, so that 1-e
// may be zero or negative, no bound of this form holds and scoreBound
// returns -Inf (lower) or +Inf (upper), which certifies nothing.
func (h *History) scoreBound(r float64, upper bool) float64 {
	var d float64
	for i, dt := range h.intervals {
		if dt <= 0 {
			continue
		}
		if !h.changed[i] {
			d -= dt
			continue
		}
		e := math.Exp(-r * dt)
		if upper {
			e = e*(1+expSlack) + expTiny
			if !(e < 1) {
				return math.Inf(1)
			}
		} else {
			e = math.Max(0, e*(1-expSlack)-expTiny)
			if !(e < 1) {
				return math.Inf(-1)
			}
		}
		d += dt * e / (1 - e)
	}
	return d
}

// certify returns rates p < q such that score > 0 at every r <= p and
// score <= 0 at every r >= q, with p = 0 or q = +Inf for a side it
// could not prove. It finds the root of the true score by Newton's
// method from r0 and proves the ends of a bracket root*(1 -+ w) around
// it. The narrower the bracket, the fewer steps are left to the exact
// score, but its ends must clear the noise scoreBound has to allow
// for: the exp error band, which moves a changed term t by expSlack
// times t/(1-e) = t*(1+t/dt), and the sum's rounding, of order n ulp of
// its terms' magnitudes. Newton's last pass estimates both, so the
// first width tried is twice the one that noise predicts; a side that
// fails is retried 16 times wider, up to 2^-20.
func (h *History) certify(r0 float64) (p, q float64) {
	p, q = 0, math.Inf(1)
	root, slope, noise, ok := h.newtonRoot(r0)
	if !ok {
		return p, q
	}
	for w := math.Max(2*noise/(root*-slope), 0x1p-50); w <= 0x1p-20 && (p == 0 || math.IsInf(q, 1)); w *= 16 {
		if c := root * (1 - w); p == 0 && h.scoreBound(c, false) > 0 {
			p = c
		}
		if c := root * (1 + w); math.IsInf(q, 1) && h.scoreBound(c, true) <= 0 {
			q = c
		}
	}
	return p, q
}

// newtonRoot solves score(r) = 0 for the true (not the computed) score
// by Newton's method from r0, safeguarded by bisection on the bracket
// its own evaluations establish. With m = exp(r*dt) - 1 and t = dt/m, a
// changed interval contributes t to the score and -t*(t+dt) to its
// derivative, written so that neither overflows as m grows. (math.Expm1
// would be more accurate for small r*dt, but it made a pass about three
// times as costly as one of score's; the cancellation in m moves the
// root by a few ulp over r*dt, well inside the expSlack band certify
// allows for.) The score is convex and decreasing, so the steps shrink
// quadratically near the root; it returns the step after one under
// 2^-26 of r, whose error is then of order 2^-52 of r, with the score's
// slope there and certify's noise estimate. ok is false without
// convergence.
func (h *History) newtonRoot(r0 float64) (root, slope, noise float64, ok bool) {
	r := r0
	lo, hi := 0.0, math.Inf(1)
	for i := 0; i < 64; i++ {
		if !(r > 0) || math.IsInf(r, 1) {
			return 0, 0, 0, false
		}
		var d, dd, band, mag float64
		for k, dt := range h.intervals {
			if dt <= 0 {
				continue
			}
			if !h.changed[k] {
				d -= dt
				mag += dt
				continue
			}
			t := dt / (math.Exp(r*dt) - 1)
			d += t
			dd -= t * (t + dt)
			band += t * (1 + t/dt)
			mag += t
		}
		noise = expSlack*band + float64(len(h.intervals))*mag*0x1p-53
		switch {
		case d > 0:
			lo = r
		case d < 0:
			hi = r
		default:
			return r, dd, noise, true
		}
		step := d / dd
		next := r - step
		if !(next > lo && next < hi) { // also a NaN step
			if math.IsInf(hi, 1) {
				next = 2 * r
			} else {
				next = (lo + hi) / 2
			}
		} else if math.Abs(step) <= r*0x1p-26 {
			return next, dd, noise, true
		}
		r = next
	}
	return 0, 0, 0, false
}

// wilson returns the Wilson score interval for k successes in n trials.
func wilson(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	den := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / den
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / den
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// poissonCountCI returns a normal-approximation interval for a Poisson
// rate from an event count over a span.
func poissonCountCI(count int, span float64) (lo, hi float64) {
	if span <= 0 {
		return 0, math.Inf(1)
	}
	c := float64(count)
	half := 1.96 * math.Sqrt(c+0.25) // anscombe-ish stabilization
	lo = (c - half) / span
	if lo < 0 {
		lo = 0
	}
	hi = (c + half) / span
	return lo, hi
}
