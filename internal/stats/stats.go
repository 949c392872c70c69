// Package stats provides the statistical building blocks used by the
// evolution experiment and the freshness analytics: bucketed histograms
// (including the paper's interval buckets), exponential fits on semilog
// axes (Figure 6) and a Kolmogorov–Smirnov goodness-of-fit test.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty reports an operation on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Histogram is a fixed-boundary histogram. Bucket i counts values x with
// Bounds[i-1] < x <= Bounds[i]; an implicit final bucket counts
// x > Bounds[len-1].
type Histogram struct {
	// Bounds are the inclusive upper edges of all but the overflow bucket,
	// in strictly increasing order.
	Bounds []float64
	// Labels optionally names each bucket (len(Bounds)+1 entries).
	Labels []string
	Counts []int
	total  int
}

// NewHistogram builds a histogram with the given upper bounds.
func NewHistogram(bounds []float64, labels []string) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, errors.New("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("stats: bounds not increasing at %d", i)
		}
	}
	if labels != nil && len(labels) != len(bounds)+1 {
		return nil, fmt.Errorf("stats: want %d labels, got %d", len(bounds)+1, len(labels))
	}
	return &Histogram{
		Bounds: bounds,
		Labels: labels,
		Counts: make([]int, len(bounds)+1),
	}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Counts[h.bucket(x)]++
	h.total++
}

func (h *Histogram) bucket(x float64) int {
	// Buckets are few (the paper uses 5); linear scan is clearest.
	for i, b := range h.Bounds {
		if x <= b {
			return i
		}
	}
	return len(h.Bounds)
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// Fractions returns each bucket's share of the total, or all zeros when
// the histogram is empty.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// PaperIntervalBounds are the change-interval bucket edges of Figure 2,
// in days: one day, one week, one month, four months. The overflow bucket
// is "> 4 months".
var PaperIntervalBounds = []float64{1, 7, 30, 120}

// PaperIntervalLabels label the Figure 2 buckets.
var PaperIntervalLabels = []string{"<=1day", "<=1week", "<=1month", "<=4months", ">4months"}

// NewPaperIntervalHistogram returns the Figure 2 histogram (units: days).
func NewPaperIntervalHistogram() *Histogram {
	h, err := NewHistogram(PaperIntervalBounds, PaperIntervalLabels)
	if err != nil {
		panic(err) // static bounds; cannot fail
	}
	return h
}

// PaperLifespanBounds are the lifespan bucket edges of Figure 4, in days:
// one week, one month, four months; overflow is "> 4 months".
var PaperLifespanBounds = []float64{7, 30, 120}

// PaperLifespanLabels label the Figure 4 buckets.
var PaperLifespanLabels = []string{"<=1week", "<=1month", "<=4months", ">4months"}

// NewPaperLifespanHistogram returns the Figure 4 histogram (units: days).
func NewPaperLifespanHistogram() *Histogram {
	h, err := NewHistogram(PaperLifespanBounds, PaperLifespanLabels)
	if err != nil {
		panic(err)
	}
	return h
}

// LinearFit holds a least-squares line y = Slope*x + Intercept with its
// coefficient of determination.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine fits y = a*x + b by ordinary least squares.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: need at least two points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R^2 = 1 - SSres/SStot.
	var ssRes, ssTot float64
	my := sy / n
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// ExponentialFit holds the result of fitting counts to c*exp(-rate*t) by
// log-linear regression — the straight line of Figure 6's semilog plots.
type ExponentialFit struct {
	Rate  float64 // decay rate (positive for decaying data)
	Scale float64 // multiplier c
	R2    float64 // of the log-space linear fit
}

// FitExponential fits ys ~ c*exp(-rate*xs). Points with ys <= 0 are
// skipped (they cannot be log-transformed); at least two positive points
// are required.
func FitExponential(xs, ys []float64) (ExponentialFit, error) {
	if len(xs) != len(ys) {
		return ExponentialFit{}, errors.New("stats: length mismatch")
	}
	var lx, ly []float64
	for i := range xs {
		if ys[i] > 0 {
			lx = append(lx, xs[i])
			ly = append(ly, math.Log(ys[i]))
		}
	}
	lf, err := FitLine(lx, ly)
	if err != nil {
		return ExponentialFit{}, err
	}
	return ExponentialFit{Rate: -lf.Slope, Scale: math.Exp(lf.Intercept), R2: lf.R2}, nil
}

// KSExponential runs a one-sample Kolmogorov–Smirnov test of the sample
// against an exponential distribution with the given rate. It returns the
// KS statistic D and an approximate p-value. Small D / large p indicates a
// good Poisson-interarrival fit (Figure 6).
func KSExponential(sample []float64, rate float64) (d, p float64, err error) {
	if len(sample) == 0 {
		return 0, 0, ErrEmpty
	}
	if rate <= 0 {
		return 0, 0, errors.New("stats: rate must be positive")
	}
	cp := append([]float64(nil), sample...)
	sort.Float64s(cp)
	n := float64(len(cp))
	for i, x := range cp {
		f := 1 - math.Exp(-rate*x)
		upper := float64(i+1)/n - f
		lower := f - float64(i)/n
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	p = ksPValue(d, len(cp))
	return d, p, nil
}

// ksPValue approximates the Kolmogorov distribution tail:
// Q(lambda) = 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2)
// with lambda = D*(sqrt(n)+0.12+0.11/sqrt(n)) (Stephens' approximation).
func ksPValue(d float64, n int) float64 {
	if d <= 0 {
		return 1
	}
	sn := math.Sqrt(float64(n))
	lambda := d * (sn + 0.12 + 0.11/sn)
	var sum float64
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j*j)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}
