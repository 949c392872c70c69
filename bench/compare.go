package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// worseBy is how much worse b is than the base a, as a share of a, in the
// metric's direction; negative when b is better.
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload, every end-to-end metric and every
// ISSUE 11 metric of the workload's class: both values, their ratio with
// its base, and the bound. It returns 1 if a run either set asked for is
// missing or failed an output check, if any bounded metric of b is worse
// than a's beyond its bound, or if a deterministic outcome differs.
func compareSets(a, b *resultSet) int {
	status := 0
	flag := func(worse bool) string {
		if !worse {
			return ""
		}
		status = 1
		return "  WORSE BEYOND BOUND"
	}
	fmt.Printf("\n%-20s %-20s %14s %14s %18s %9s\n", "workload", "metric", "A", "B", "B/A (base A)", "bound")
	row := func(workload, name string, va, vb float64, bound, verdict string) {
		ratio := 0.0
		if va != 0 {
			ratio = vb / va
		}
		fmt.Printf("%-20s %-20s %14.6g %14.6g %8.3f of %-8.4g %9s%s\n", workload, name, va, vb, ratio, va, bound, verdict)
	}
	for _, w := range workloads {
		if !a.asked(w.Name) && !b.asked(w.Name) {
			continue
		}
		ra, rb := a.find(w.Name, false), b.find(w.Name, false)
		if ra == nil || rb == nil {
			fmt.Printf("%-20s untraced run missing: in A %v, in B %v\n", w.Name, ra != nil, rb != nil)
			status = 1
			continue
		}
		for i, r := range []*runRecord{ra, rb} {
			if !r.Result.Correct {
				fmt.Printf("%-20s %c failed its output checks: %v\n", w.Name, "AB"[i], r.Detail.Problems)
				status = 1
			}
		}
		for _, m := range endToEnd {
			va, vb := ra.Result.Metrics[m.Name].Value, rb.Result.Metrics[m.Name].Value
			row(w.Name, m.Name, va, vb, fmt.Sprintf("%.3g%%", m.Bound*100), flag(worseBy(m, va, vb) > m.Bound))
		}
		for _, m := range issueMetrics {
			va, inA := ra.Issue[m.Name]
			vb, inB := rb.Issue[m.Name]
			if !inA || !inB || m.via == m.Name {
				continue // not this class's, or the end-to-end row above is the same number
			}
			switch {
			case !m.gated && m.via != "":
				row(w.Name, m.Name, va, vb, "-", "  (gated as "+m.via+")")
			case !m.gated:
				row(w.Name, m.Name, va, vb, "-", "  (not steady here; per-layer)")
			case m.absolute:
				row(w.Name, m.Name, va, vb, fmt.Sprintf("+%g", m.Bound), flag(vb-va > m.Bound))
			default:
				row(w.Name, m.Name, va, vb, fmt.Sprintf("%.3g%%", m.Bound*100), flag(worseBy(m.metricSpec, va, vb) > m.Bound))
			}
		}
		if a.Seed == b.Seed && a.Seconds == b.Seconds && ra.Detail.Digest != "" {
			da, db := ra.Detail, rb.Detail
			if da.Digest != db.Digest || da.Fetches != db.Fetches || da.Freshness != db.Freshness || da.AgeDays != db.AgeDays {
				fmt.Printf("%-20s deterministic outcomes differ: digest %s/%s fetches %d/%d freshness %v/%v age %v/%v\n",
					w.Name, da.Digest, db.Digest, da.Fetches, db.Fetches, da.Freshness, db.Freshness, da.AgeDays, db.AgeDays)
				status = 1
			}
		}
	}
	return status
}

func compareFiles(pathA, pathB string) int {
	load := func(path string) *resultSet {
		b, err := os.ReadFile(path)
		if err != nil {
			fatal("%v", err)
		}
		var set resultSet
		if err := json.Unmarshal(b, &set); err != nil {
			fatal("%s: %v", path, err)
		}
		return &set
	}
	return compareSets(load(pathA), load(pathB))
}
