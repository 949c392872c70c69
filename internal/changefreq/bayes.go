package changefreq

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// EB: the Bayesian frequency-class estimator of Section 5.3 ([CGM99a]).
// Instead of a confidence interval, EB maintains a posterior distribution
// over a small set of frequency classes (e.g. "changes every week" CW,
// "changes every month" CM). Each access updates the posterior: if page
// p1 did not change for a month, P{p1 in CM} rises and P{p1 in CW} falls.

// Class is one frequency class hypothesis.
type Class struct {
	// Name labels the class (e.g. "weekly").
	Name string
	// Rate is the class's change rate (changes per unit time).
	Rate float64
}

// DefaultClasses mirrors the paper's examples plus the buckets of
// Figure 2, in changes/day.
var DefaultClasses = []Class{
	{Name: "daily", Rate: 1},
	{Name: "weekly", Rate: 1.0 / 7},
	{Name: "monthly", Rate: 1.0 / 30},
	{Name: "quarterly", Rate: 1.0 / 120},
	{Name: "yearly", Rate: 1.0 / 365},
}

// Bayes is the EB estimator for one page. The zero value is not usable;
// call NewBayes.
type Bayes struct {
	classes []Class
	logPost []float64 // unnormalized log posterior
	n       int
	detect  int
	last    float64
	started bool
}

// NewBayes builds an EB estimator with the given classes and a uniform
// prior. Classes must be non-empty with positive, distinct rates.
func NewBayes(classes []Class) (*Bayes, error) {
	if len(classes) == 0 {
		return nil, errors.New("changefreq: no classes")
	}
	seen := map[float64]bool{}
	for _, c := range classes {
		if c.Rate <= 0 || math.IsInf(c.Rate, 0) || math.IsNaN(c.Rate) {
			return nil, fmt.Errorf("changefreq: class %q has bad rate", c.Name)
		}
		if seen[c.Rate] {
			return nil, fmt.Errorf("changefreq: duplicate class rate %v", c.Rate)
		}
		seen[c.Rate] = true
	}
	cp := append([]Class(nil), classes...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Rate > cp[j].Rate })
	return &Bayes{
		classes: cp,
		logPost: make([]float64, len(cp)),
	}, nil
}

// Record updates the posterior with one access. Accesses must be in time
// order; the first access initializes the clock.
func (b *Bayes) Record(obs Observation) error {
	if !b.started {
		b.started = true
		b.last = obs.Time
		return nil
	}
	if obs.Time < b.last {
		return errors.New("changefreq: observations out of order")
	}
	dt := obs.Time - b.last
	b.last = obs.Time
	b.n++
	if obs.Changed {
		b.detect++
	}
	for i, c := range b.classes {
		// P(changed in dt | rate) = 1 - exp(-rate*dt).
		p := 1 - math.Exp(-c.Rate*dt)
		if !obs.Changed {
			p = 1 - p
		}
		if p < 1e-300 {
			p = 1e-300
		}
		b.logPost[i] += math.Log(p)
	}
	return nil
}

// Posterior returns the normalized posterior probabilities, in the same
// order as Classes.
func (b *Bayes) Posterior() []float64 {
	out := make([]float64, len(b.logPost))
	maxLog := math.Inf(-1)
	for _, lp := range b.logPost {
		if lp > maxLog {
			maxLog = lp
		}
	}
	var sum float64
	for i, lp := range b.logPost {
		out[i] = math.Exp(lp - maxLog)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Classes returns the classes in internal (descending-rate) order.
func (b *Bayes) Classes() []Class { return b.classes }

// MAP returns the maximum-a-posteriori class.
func (b *Bayes) MAP() Class {
	post := b.Posterior()
	best, bi := -1.0, 0
	for i, p := range post {
		if p > best {
			best, bi = p, i
		}
	}
	return b.classes[bi]
}

// Rate returns the posterior-mean change rate: the expected rate under
// the class posterior. Schedulers use it directly as the page's working
// rate estimate.
func (b *Bayes) Rate() float64 {
	post := b.Posterior()
	var r float64
	for i, p := range post {
		r += p * b.classes[i].Rate
	}
	return r
}

// Accesses returns the number of recorded inter-access intervals.
func (b *Bayes) Accesses() int { return b.n }

// String renders the posterior for debugging.
func (b *Bayes) String() string {
	post := b.Posterior()
	var sb strings.Builder
	sb.WriteString("EB{")
	for i, c := range b.classes {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s:%.3f", c.Name, post[i])
	}
	sb.WriteString("}")
	return sb.String()
}
