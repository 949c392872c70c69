package main

import (
	"testing"

	"webevolve/internal/crawlstate"
)

// TestStateEstimates: /v1/estimates answers from the crawl state: the
// EP rate and counts of the stored history, the interval the crawler
// derives from it, and the page's next due day; unknown URLs are not
// found.
func TestStateEstimates(t *testing.T) {
	const u = "http://a.com/"
	st := &crawlstate.State{
		Histories: map[string][]crawlstate.Obs{
			u:                {{Day: 0}, {Day: 1, Changed: true}, {Day: 3}, {Day: 4, Changed: true}, {Day: 7, Changed: true}},
			"http://b.com/x": {{Day: 2}},
		},
		Due: map[string]float64{u: 9.5},
	}
	se := stateEstimates{st: st}
	if _, ok := se.Estimate("http://unknown.com/"); ok {
		t.Fatal("an unknown URL has an estimate")
	}
	est, ok := se.Estimate(u)
	if !ok {
		t.Fatal("no estimate for a crawled page")
	}
	r, _ := st.EstimateRate(u)
	if est.URL != u || est.Estimator != "ep-irregular" || est.RatePerDay != r.RatePerDay || est.RatePerDay <= 0 {
		t.Fatalf("estimate %+v, state rate %+v", est, r)
	}
	if est.Samples != 5 || est.Changes != 3 || est.LastVisitDay != 7 || est.NextDueDay != 9.5 {
		t.Fatalf("estimate %+v: want 5 samples, 3 changes, last visit 7, due 9.5", est)
	}
	if want := crawlstate.ReviseInterval(st.Histories[u]); est.IntervalDays != want {
		t.Fatalf("interval %v, want %v", est.IntervalDays, want)
	}
	// One visit gives the estimator nothing: the default, with no due day.
	if est, ok := se.Estimate("http://b.com/x"); !ok || est.Estimator != "default" || est.RatePerDay != 0 || est.NextDueDay != 0 {
		t.Fatalf("single-visit estimate %+v, %v", est, ok)
	}
}
