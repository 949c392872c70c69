// Package core implements the paper's primary contribution: the
// incremental crawler architecture of Section 5 (Figures 11 and 12).
//
// Three modules cooperate around three data structures:
//
//   - The UpdateModule keeps the Collection fresh: it pops the head of
//     CollUrls, asks a CrawlModule to fetch it, detects changes by
//     checksum comparison, feeds the page's change history to a
//     change-frequency estimator (EP or EB, package changefreq), and
//     pushes the URL back with a due-time chosen by the revisit policy
//     (package scheduler).
//
//   - The RankingModule improves the Collection's quality: it
//     periodically recomputes importance (PageRank) over the link
//     structure captured so far, admits newly discovered important pages
//     (placing them at the front of CollUrls so they are crawled
//     immediately), and discards the least important pages to make room —
//     the refinement decision.
//
//   - CrawlModules fetch pages and forward extracted links to AllUrls.
//     Multiple CrawlModules can run in parallel.
//
// Of the three structures, CollUrls is the frontier (package frontier)
// and the Collection the shadowed store pair. AllUrls is the crawl's URL
// table (urlid.Table, Crawler.AllUrls), and the links it was given are
// the page graph (webgraph.Graph, Crawler.Graph), which the
// RankingModule scans.
//
// The same engine also runs in batch mode and/or with a shadowed
// collection, so the four design points of Section 4 (and the periodic
// crawler baseline) are all configurations of one implementation.
package core

import (
	"errors"
	"fmt"

	"webevolve/internal/changefreq"
	"webevolve/internal/frontier"
	"webevolve/internal/scheduler"
)

// Mode selects steady vs batch crawling (Section 4, question 1).
type Mode int

const (
	// Steady runs continuously, spreading revisits over the whole cycle.
	Steady Mode = iota
	// Batch revisits the whole collection in a burst at the start of
	// each cycle, then idles until the next cycle.
	Batch
)

// String names the mode.
func (m Mode) String() string {
	if m == Batch {
		return "batch"
	}
	return "steady"
}

// UpdateStyle selects in-place updates vs shadowing (question 2).
type UpdateStyle int

const (
	// InPlace publishes each crawled page immediately.
	InPlace UpdateStyle = iota
	// Shadow collects pages into a shadow collection that replaces the
	// current collection at the end of each cycle's crawl.
	Shadow
)

// String names the update style.
func (u UpdateStyle) String() string {
	if u == Shadow {
		return "shadow"
	}
	return "in-place"
}

// FreqPolicy selects the revisit-frequency policy (question 3).
type FreqPolicy int

const (
	// FixedFreq revisits all pages once per cycle.
	FixedFreq FreqPolicy = iota
	// VariableFreq adjusts per-page revisit frequency using estimated
	// change rates and the Figure 9 optimal allocation.
	VariableFreq
	// ProportionalFreq is the naive policy: frequency proportional to
	// change rate (ablation baseline).
	ProportionalFreq
)

// String names the policy.
func (f FreqPolicy) String() string {
	switch f {
	case VariableFreq:
		return "variable"
	case ProportionalFreq:
		return "proportional"
	default:
		return "fixed"
	}
}

// EstimatorKind selects the change-frequency estimator (Section 5.3).
type EstimatorKind int

const (
	// EstimatorEP is the Poisson estimator with confidence interval.
	EstimatorEP EstimatorKind = iota
	// EstimatorEB is the Bayesian frequency-class estimator.
	EstimatorEB
	// EstimatorNaive is detected-changes/span (ablation baseline).
	EstimatorNaive
)

// String names the estimator.
func (e EstimatorKind) String() string {
	switch e {
	case EstimatorEB:
		return "EB"
	case EstimatorNaive:
		return "naive"
	default:
		return "EP"
	}
}

// Config parameterizes a crawler.
type Config struct {
	// Seeds are the starting URLs (typically site roots).
	Seeds []string
	// CollectionSize is the target number of pages maintained (the
	// paper's fixed-number assumption, Section 5.2).
	CollectionSize int
	// PagesPerDay is the average crawl bandwidth in pages/day. A steady
	// crawler fetches continuously at this rate; a batch crawler fetches
	// the same cycle total compressed into the batch window (higher peak
	// speed, as the paper discusses).
	PagesPerDay float64
	// CycleDays is the revisit cycle (the paper's examples use a month).
	CycleDays float64
	// BatchDays is the batch crawl window within each cycle (the paper's
	// examples use a week). Ignored in steady mode.
	BatchDays float64

	Mode   Mode
	Update UpdateStyle
	// Freq is the revisit policy. Batch mode recrawls the whole
	// collection every cycle whatever the policy says, so it accepts
	// only FixedFreq (Validate).
	Freq      FreqPolicy
	Estimator EstimatorKind
	// RankEveryDays is the ranking/refinement cadence. The paper argues
	// this must be decoupled from the update decision; it defaults to
	// the cycle length.
	RankEveryDays float64
	// MinIntervalDays / MaxIntervalDays clamp variable revisit intervals.
	MinIntervalDays float64
	MaxIntervalDays float64
	// Workers is the number of concurrent CrawlModule workers the
	// engine dispatches fetch batches to (Section 5.3: "multiple
	// CrawlModules may run in parallel, depending on how fast we need
	// to crawl pages"). Jobs are grouped by frontier shard before
	// dispatch, so same-site fetches stay ordered; on the deterministic
	// simulator every worker count produces identical results. Default
	// 1.
	Workers int
	// Frontier injects the revisit queue in place of the in-process
	// frontier.NewSharded(16) — e.g. a cluster.RemoteShards, whose
	// servers configure their own shard counts and whose membership the
	// engine follows at quiescent round boundaries (a shard set with a
	// Rebalance method). The pop order, and so the crawl, is the same at
	// any shard count. The caller owns its lifecycle.
	Frontier frontier.ShardSet
	// DispatchBatch caps how many due URLs one dispatch round hands to
	// the worker pool; it also sizes the batched store writes and
	// change-frequency updates. Default 4*Workers (at least 8).
	DispatchBatch int
	// StoreContent keeps page bodies in the collection (off for large
	// simulations).
	StoreContent bool
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.CollectionSize == 0 {
		c.CollectionSize = 1000
	}
	if c.PagesPerDay == 0 {
		c.PagesPerDay = float64(c.CollectionSize) // one full pass per day
	}
	if c.CycleDays == 0 {
		c.CycleDays = 30
	}
	if c.BatchDays == 0 {
		c.BatchDays = 7
	}
	if c.RankEveryDays == 0 {
		c.RankEveryDays = c.CycleDays
	}
	if c.MinIntervalDays == 0 {
		c.MinIntervalDays = 0.25
	}
	if c.MaxIntervalDays == 0 {
		c.MaxIntervalDays = 8 * c.CycleDays
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.DispatchBatch == 0 {
		c.DispatchBatch = 4 * c.Workers
		if c.DispatchBatch < 8 {
			c.DispatchBatch = 8
		}
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if len(c.Seeds) == 0 {
		return errors.New("core: no seed URLs")
	}
	if c.CollectionSize < 1 {
		return errors.New("core: collection size must be >= 1")
	}
	if c.PagesPerDay <= 0 {
		return errors.New("core: bandwidth must be positive")
	}
	if c.CycleDays <= 0 {
		return errors.New("core: cycle must be positive")
	}
	if c.Mode == Batch && (c.BatchDays <= 0 || c.BatchDays > c.CycleDays) {
		return fmt.Errorf("core: batch window %v must be in (0, cycle]", c.BatchDays)
	}
	if c.Mode == Batch && c.Freq != FixedFreq {
		return fmt.Errorf("core: batch mode recrawls the whole collection every cycle and never consults the revisit policy, so it runs only at %s frequency (got %s)", FixedFreq, c.Freq)
	}
	if c.MinIntervalDays <= 0 || c.MaxIntervalDays < c.MinIntervalDays {
		return errors.New("core: bad interval clamps")
	}
	if c.Workers < 1 {
		return errors.New("core: workers must be >= 1")
	}
	if c.DispatchBatch < 1 {
		return errors.New("core: dispatch batch must be >= 1")
	}
	return nil
}

// policy builds the scheduler policy for the configuration.
func (c Config) policy() (scheduler.Policy, *scheduler.Optimal, error) {
	switch c.Freq {
	case FixedFreq:
		return scheduler.Fixed{Every: c.CycleDays}, nil, nil
	case ProportionalFreq:
		return scheduler.Proportional{MinDays: c.MinIntervalDays, MaxDays: c.MaxIntervalDays}, nil, nil
	case VariableFreq:
		opt, err := scheduler.NewOptimal(c.PagesPerDay, c.MinIntervalDays, c.MaxIntervalDays, c.CycleDays)
		if err != nil {
			return nil, nil, err
		}
		return opt, opt, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown frequency policy %d", c.Freq)
	}
}

// estimator tracks one page's change history under the configured kind.
// It holds the history in place, so a page's state is one allocation;
// bayes is made under EB only.
type estimator struct {
	kind  EstimatorKind
	hist  changefreq.History
	bayes *changefreq.Bayes
}

func newEstimator(kind EstimatorKind) (estimator, error) {
	e := estimator{kind: kind}
	if kind == EstimatorEB {
		b, err := changefreq.NewBayes(changefreq.DefaultClasses)
		if err != nil {
			return estimator{}, err
		}
		e.bayes = b
	}
	return e, nil
}

// record adds an observation.
func (e *estimator) record(obs changefreq.Observation) error {
	if err := e.hist.Record(obs); err != nil {
		return err
	}
	if e.bayes != nil {
		return e.bayes.Record(obs)
	}
	return nil
}

// rate returns the working change-rate estimate in changes/day, or 0
// when nothing is known yet.
func (e *estimator) rate() float64 {
	switch e.kind {
	case EstimatorEB:
		if e.bayes.Accesses() == 0 {
			return 0
		}
		return e.bayes.Rate()
	case EstimatorNaive:
		est, err := changefreq.Naive(&e.hist)
		if err != nil {
			return 0
		}
		return est.Rate
	default:
		est, err := changefreq.EPIrregular(&e.hist)
		if err != nil {
			return 0
		}
		return est.Rate
	}
}
