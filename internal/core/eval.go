package core

import (
	"errors"
	"fmt"

	"webevolve/internal/pagerank"
	"webevolve/internal/simweb"
	"webevolve/internal/store"
	"webevolve/internal/webgraph"
)

// Evaluator measures a collection against the simulated web's ground
// truth: the freshness metric of Section 4 and the quality goal of
// Section 5.1. Only experiments use it — a real crawler has no oracle.
type Evaluator struct {
	Web *simweb.Web
}

// Freshness returns the fraction of collection pages that are up-to-date
// at the given day: present in the live web with an unchanged checksum.
// Pages that have vanished from the web count as stale, and a collection
// smaller than target counts missing slots as stale when target > 0 —
// freshness is "the fraction of up-to-date pages in the local
// collection" of the intended size.
func (e *Evaluator) Freshness(coll store.Collection, day float64, target int) (float64, error) {
	if e.Web == nil {
		return 0, errors.New("core: evaluator needs a web")
	}
	n := 0
	fresh := 0
	err := coll.Scan(func(rec store.PageRecord) bool {
		n++
		snap, err := e.Web.FetchMeta(rec.URL, day)
		if err == nil && snap.Checksum == rec.Checksum {
			fresh++
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	den := n
	if target > n {
		den = target
	}
	if den == 0 {
		return 0, nil
	}
	return float64(fresh) / float64(den), nil
}

// AvgAge returns the mean age (days since the first unseen change, 0 for
// fresh copies) across collection pages at the given day — [CGM99b]'s
// second metric. Vanished pages contribute the time since their stored
// fetch.
func (e *Evaluator) AvgAge(coll store.Collection, day float64) (float64, error) {
	if e.Web == nil {
		return 0, errors.New("core: evaluator needs a web")
	}
	var total float64
	n := 0
	err := coll.Scan(func(rec store.PageRecord) bool {
		n++
		snap, ferr := e.Web.FetchMeta(rec.URL, day)
		switch {
		case ferr == nil && snap.Checksum == rec.Checksum:
			// fresh: age 0
		case ferr == nil:
			// Changed since fetch; approximate the age as half the time
			// since our copy (the first change is uniform-ish in the
			// interval under a Poisson process).
			total += (day - rec.FetchedAt) / 2
		default:
			total += day - rec.FetchedAt
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	return total / float64(n), nil
}

// Quality measures the collection-quality goal of Section 5.1: the
// overlap between the collection's URL set and the true top-k pages by
// PageRank over the full live web at the given day (k = the collection's
// size). 1.0 means the collection holds exactly the most important pages.
func (e *Evaluator) Quality(coll store.Collection, day float64) (float64, error) {
	if e.Web == nil {
		return 0, errors.New("core: evaluator needs a web")
	}
	urls := coll.URLs()
	if len(urls) == 0 {
		return 0, nil
	}
	g := e.Web.BuildGraph(day)
	ranks, _, err := pagerank.Pages(g.Snapshot(), pagerank.Options{Damping: 0.9})
	if err != nil {
		return 0, err
	}
	top := pagerank.TopK(ranks, len(urls))
	ideal := make(map[string]struct{}, len(top))
	for _, r := range top {
		ideal[r.ID] = struct{}{}
	}
	hit := 0
	for _, u := range urls {
		if _, ok := ideal[u]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(urls)), nil
}

// FreshnessByDomain splits freshness by the paper's domain groups.
func (e *Evaluator) FreshnessByDomain(coll store.Collection, day float64) (map[string]float64, error) {
	if e.Web == nil {
		return nil, errors.New("core: evaluator needs a web")
	}
	fresh := make(map[string]int)
	total := make(map[string]int)
	err := coll.Scan(func(rec store.PageRecord) bool {
		dom := webgraph.DomainOf(webgraph.SiteOf(rec.URL))
		total[dom]++
		snap, ferr := e.Web.FetchMeta(rec.URL, day)
		if ferr == nil && snap.Checksum == rec.Checksum {
			fresh[dom]++
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(total))
	for dom, t := range total {
		out[dom] = float64(fresh[dom]) / float64(t)
	}
	return out, nil
}

// TimeAverage runs a crawler-like runner between sample points and
// averages a metric over time: the standard way this repository computes
// "freshness averaged over time" for any crawler.
type Runner interface {
	RunUntil(day float64) error
	Day() float64
	Collection() store.Collection
}

// TimeAveragedFreshness advances r from its current day to endDay,
// sampling freshness at the given number of evenly spaced instants
// (after skipping warmupDays), and returns the mean and the sampled
// series.
func (e *Evaluator) TimeAveragedFreshness(r Runner, endDay, warmupDays float64, samples int, target int) (float64, []Sample, error) {
	if samples < 1 {
		return 0, nil, errors.New("core: need at least one sample")
	}
	start := r.Day() + warmupDays
	if endDay <= start {
		return 0, nil, fmt.Errorf("core: end day %g is not after the warm-up's end, day %g", endDay, start)
	}
	if warmupDays > 0 {
		if err := r.RunUntil(start); err != nil {
			return 0, nil, err
		}
	}
	var series []Sample
	var sum float64
	for i := 1; i <= samples; i++ {
		day := start + (endDay-start)*float64(i)/float64(samples)
		if err := r.RunUntil(day); err != nil {
			return 0, nil, err
		}
		f, err := e.Freshness(r.Collection(), day, target)
		if err != nil {
			return 0, nil, err
		}
		series = append(series, Sample{Day: day, Value: f})
		sum += f
	}
	return sum / float64(samples), series, nil
}

// Sample is one point of a measured time series.
type Sample struct {
	Day   float64
	Value float64
}
