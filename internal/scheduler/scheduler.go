// Package scheduler implements the revisit-frequency policies of
// Section 4, design question 3: fixed frequency (every page revisited at
// the same interval — the batch crawler's natural policy), naive
// proportional (revisit faster-changing pages proportionally more often —
// the intuition the paper shows is wrong), and the optimal
// variable-frequency policy of Figure 9, which allocates a global revisit
// budget across pages to maximize expected freshness.
//
// Policies consume change-rate estimates (from package changefreq) and
// produce per-page revisit intervals; the crawler's UpdateModule turns
// those into due times on the revisit queue (frontier.Sharded, the
// paper's CollUrls).
package scheduler

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"

	"webevolve/internal/freshness"
	"webevolve/internal/obs"
)

var outOfPlan = obs.Default.Counter("webevolve_scheduler_out_of_plan_total",
	"reschedules under the optimal policy of pages absent from the revisit plan, served DefaultDays")

// Policy maps a page's estimated change rate to a revisit interval in
// days. Implementations are safe for concurrent use.
type Policy interface {
	// Interval returns the revisit interval for the page with the given
	// ID (the caller's dense page ID, as in PageRate). rate is the
	// estimated change rate in changes/day (0 when unknown or immutable).
	Interval(id int32, rate float64) float64
	// Name identifies the policy in reports.
	Name() string
}

// Clamp bounds an interval to [min, max]; non-positive or NaN intervals
// become max.
func Clamp(interval, min, max float64) float64 {
	if math.IsNaN(interval) || interval <= 0 {
		return max
	}
	if interval < min {
		return min
	}
	if interval > max {
		return max
	}
	return interval
}

// Fixed revisits every page at the same interval.
type Fixed struct {
	// Every is the revisit interval in days.
	Every float64
}

// Interval implements Policy.
func (f Fixed) Interval(int32, float64) float64 { return f.Every }

// Name implements Policy.
func (Fixed) Name() string { return "fixed" }

// Proportional revisits a page once per expected change: interval =
// 1/rate, clamped to [MinDays, MaxDays]. This is the intuitive policy
// Section 4 warns about: it over-spends budget on pages that change too
// fast to keep fresh.
type Proportional struct {
	// MinDays and MaxDays clamp the interval.
	MinDays, MaxDays float64
}

// Interval implements Policy.
func (p Proportional) Interval(_ int32, rate float64) float64 {
	if rate <= 0 {
		return p.MaxDays
	}
	return Clamp(1/rate, p.MinDays, p.MaxDays)
}

// Name implements Policy.
func (Proportional) Name() string { return "proportional" }

// Optimal allocates a global budget of visits/day across the collection
// with the Figure 9 optimization, then serves per-page intervals from the
// resulting plan. Rebuild must be called (typically by the ranking/
// planning cadence of the crawler) whenever rate estimates have moved
// materially; between rebuilds, unknown pages fall back to DefaultDays.
type Optimal struct {
	// BudgetPerDay is the total revisit frequency to allocate.
	BudgetPerDay float64
	// MinDays, MaxDays clamp per-page intervals; pages the optimizer
	// would never visit get MaxDays rather than infinity, so the crawler
	// still notices deletions. That deviates from the pure optimum,
	// which never revisits them: a page that is never fetched again is
	// never found to be gone, and the collection keeps serving it.
	MinDays, MaxDays float64
	// DefaultDays is used for pages absent from the current plan.
	DefaultDays float64

	mu sync.RWMutex
	// plan[id] is the interval (days) of the page with that ID, 0 for an
	// ID outside the plan (intervals are at least MinDays > 0).
	plan    []float64
	planned int // pages in the plan
}

// NewOptimal builds an Optimal policy.
func NewOptimal(budgetPerDay, minDays, maxDays, defaultDays float64) (*Optimal, error) {
	if budgetPerDay <= 0 {
		return nil, errors.New("scheduler: budget must be positive")
	}
	if minDays <= 0 || maxDays < minDays || defaultDays <= 0 {
		return nil, errors.New("scheduler: bad interval bounds")
	}
	return &Optimal{
		BudgetPerDay: budgetPerDay,
		MinDays:      minDays,
		MaxDays:      maxDays,
		DefaultDays:  defaultDays,
	}, nil
}

// PageRate is one page's estimated change rate, in changes/day. ID is
// the dense, non-negative ID Interval is later asked about; the URL
// orders the pages, so the allocation does not depend on how IDs were
// handed out.
type PageRate struct {
	ID   int32
	URL  string
	Rate float64
}

// Rebuild recomputes the allocation for the given pages (distinct URLs
// with distinct IDs; negative or non-finite rates count as 0). It sorts
// pages by URL in place, so the plan does not depend on the order they
// arrive in.
func (o *Optimal) Rebuild(pages []PageRate) error {
	if len(pages) == 0 {
		o.mu.Lock()
		o.plan, o.planned = nil, 0
		o.mu.Unlock()
		return nil
	}
	slices.SortFunc(pages, func(a, b PageRate) int { return strings.Compare(a.URL, b.URL) })
	rs := make([]float64, len(pages))
	for i, p := range pages {
		if p.Rate > 0 && !math.IsInf(p.Rate, 1) {
			rs[i] = p.Rate
		}
	}
	fs, err := freshness.OptimalAllocation(rs, o.BudgetPerDay)
	if err != nil {
		return err
	}
	var maxID int32
	for _, p := range pages {
		maxID = max(maxID, p.ID)
	}
	plan := make([]float64, maxID+1)
	for i, p := range pages {
		iv := o.MaxDays
		if f := fs[i]; f > 0 {
			iv = Clamp(1/f, o.MinDays, o.MaxDays)
		}
		plan[p.ID] = iv
	}
	o.mu.Lock()
	o.plan, o.planned = plan, len(pages)
	o.mu.Unlock()
	return nil
}

// Interval implements Policy. A page absent from the plan gets
// DefaultDays whatever its rate: scheduling it at 1/rate would be the
// proportional policy Section 4 warns about, and with true rates it
// spends the budget on pages changing too fast to keep fresh.
func (o *Optimal) Interval(id int32, _ float64) float64 {
	var iv float64
	o.mu.RLock()
	if uint32(id) < uint32(len(o.plan)) {
		iv = o.plan[id]
	}
	o.mu.RUnlock()
	if iv > 0 {
		return iv
	}
	outOfPlan.Inc()
	return o.DefaultDays
}

// Name implements Policy.
func (*Optimal) Name() string { return "optimal" }

// PlanSize returns the number of pages in the current plan.
func (o *Optimal) PlanSize() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.planned
}
