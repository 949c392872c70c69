// Package pagerank implements the PageRank metric exactly as the paper
// defines it (Section 2.2):
//
//	PR(P) = d + (1-d) * [ PR(P1)/c1 + ... + PR(Pn)/cn ]
//
// where P1..Pn are the pages pointing to P, ci is the out-degree of Pi and
// d is a damping factor (0.9 in the paper's experiment). Iteration starts
// from all values equal to 1 and proceeds until convergence.
//
// Note the paper's formulation is the "non-normalized" PageRank of
// [PB98]: values converge to an average of roughly 1 rather than summing
// to 1. Ranking order is identical to the normalized variant; intuitively
// PR(P)/N is the random-surfer probability.
//
// The same solver ranks pages (for the RankingModule's refinement
// decision, Section 5.3) and sites (for experiment site selection, where
// the graph is the site hypergraph).
package pagerank

import (
	"errors"
	"math"
	"sort"

	"webevolve/internal/webgraph"
)

// The solver iterates until no node's value moves by tolerance or
// more, or for maxIter sweeps.
const (
	tolerance = 1e-9
	maxIter   = 200
)

// Options configure the iterative solver.
type Options struct {
	// Damping is the paper's d; it defaults to 0.9 (the experiment's
	// value) when zero.
	Damping float64
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = 0.9
	}
	return o
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Damping <= 0 || o.Damping >= 1 {
		return errors.New("pagerank: damping must be in (0,1)")
	}
	return nil
}

// Result carries the converged scores.
type Result struct {
	// Score maps node index (into the input snapshot's IDs) to PageRank.
	Score []float64
	// Iterations is the number of sweeps performed.
	Iterations int
	// Converged reports whether tolerance was reached within maxIter
	// sweeps.
	Converged bool
}

// solve runs the paper's iteration on a generic adjacency structure.
func solve(out [][]int32, n int, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	opt = opt.withDefaults()
	if n == 0 {
		return Result{Score: nil, Converged: true}, nil
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 // the paper starts all PR values at 1
	}
	res := Result{}
	for it := 0; it < maxIter; it++ {
		// Contribution push: next[to] accumulates cur[from]/outdeg(from).
		for i := range next {
			next[i] = 0
		}
		for from, tos := range out {
			if len(tos) == 0 {
				continue // dangling pages contribute only the damping term
			}
			share := cur[from] / float64(len(tos))
			for _, to := range tos {
				next[to] += share
			}
		}
		var maxDelta float64
		for i := range next {
			v := opt.Damping + (1-opt.Damping)*next[i]
			if d := math.Abs(v - cur[i]); d > maxDelta {
				maxDelta = d
			}
			next[i] = v
		}
		cur, next = next, cur
		res.Iterations = it + 1
		if maxDelta < tolerance {
			res.Converged = true
			break
		}
	}
	res.Score = cur
	return res, nil
}

// Pages computes PageRank over a page-graph snapshot. The returned map
// keys are page IDs.
func Pages(snap *webgraph.Snapshot, opt Options) (map[string]float64, Result, error) {
	res, err := solve(snap.Out, len(snap.IDs), opt)
	if err != nil {
		return nil, Result{}, err
	}
	m := make(map[string]float64, len(snap.IDs))
	for i, id := range snap.IDs {
		m[id] = res.Score[i]
	}
	return m, res, nil
}

// Sites computes the site-level PageRank of Section 2.2 over the
// hypergraph projection. The returned map keys are site hosts.
func Sites(sg *webgraph.SiteGraph, opt Options) (map[string]float64, Result, error) {
	res, err := solve(sg.Out, len(sg.Sites), opt)
	if err != nil {
		return nil, Result{}, err
	}
	m := make(map[string]float64, len(sg.Sites))
	for i, s := range sg.Sites {
		m[s] = res.Score[i]
	}
	return m, res, nil
}

// Ranked is a node with its score.
type Ranked struct {
	ID    string
	Score float64
}

// TopK returns the k highest-scored entries of scores, ties broken by ID
// for determinism. If k exceeds the map size, all entries are returned.
func TopK(scores map[string]float64, k int) []Ranked {
	all := make([]Ranked, 0, len(scores))
	for id, s := range scores {
		all = append(all, Ranked{ID: id, Score: s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}
