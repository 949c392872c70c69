package main

import (
	"math"
	"sort"
)

// tailPercentile is the reporting rule for timings: the highest
// percentile, capped at limit, that still has at least ten samples beyond
// it; below twenty samples only the median is supported.
func tailPercentile(n int, limit float64) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(limit, 1-10/float64(n))
}

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// values; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// timing summarises one set of latency samples under the reporting rule.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailP float64 `json:"tail_percentile"`
}

// summarize sorts vals in place.
func summarize(vals []float64, limit float64) timing {
	sort.Float64s(vals)
	p := tailPercentile(len(vals), limit)
	return timing{N: len(vals), P50: quantile(vals, 0.5), Tail: quantile(vals, p), TailP: p}
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
