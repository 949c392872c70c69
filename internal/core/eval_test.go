package core

import (
	"fmt"
	"testing"

	"webevolve/internal/store"
)

func TestEvaluatorFreshness(t *testing.T) {
	w, _ := testWeb(t, 20)
	ev := &Evaluator{Web: w}
	coll := store.NewMem()

	// A perfectly fresh collection: snapshot everything at day 5 and
	// evaluate at day 5.
	day := 5.0
	for _, s := range w.Sites() {
		for _, u := range s.WindowURLs(day) {
			snap, err := w.FetchMeta(u, day)
			if err != nil {
				t.Fatal(err)
			}
			if err := coll.Put(store.PageRecord{URL: u, Checksum: snap.Checksum, FetchedAt: day}); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := ev.Freshness(coll, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 {
		t.Fatalf("snapshot freshness %v, want 1", f)
	}
	// Much later the same collection must have decayed.
	f60, err := ev.Freshness(coll, day+60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f60 >= f {
		t.Fatalf("freshness did not decay: %v -> %v", f, f60)
	}
	// Age grows over time.
	a0, err := ev.AvgAge(coll, day)
	if err != nil {
		t.Fatal(err)
	}
	a60, err := ev.AvgAge(coll, day+60)
	if err != nil {
		t.Fatal(err)
	}
	if a0 != 0 || a60 <= 0 {
		t.Fatalf("ages %v -> %v", a0, a60)
	}
}

func TestEvaluatorTargetPenalizesSmallCollections(t *testing.T) {
	w, _ := testWeb(t, 21)
	ev := &Evaluator{Web: w}
	coll := store.NewMem()
	u := w.Sites()[0].RootURL()
	snap, err := w.FetchMeta(u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Put(store.PageRecord{URL: u, Checksum: snap.Checksum, FetchedAt: 0}); err != nil {
		t.Fatal(err)
	}
	full, err := ev.Freshness(coll, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	penalized, err := ev.Freshness(coll, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if full != 1 || penalized != 0.1 {
		t.Fatalf("freshness full=%v penalized=%v", full, penalized)
	}
}

func TestEvaluatorQuality(t *testing.T) {
	w, f := testWeb(t, 22)
	cfg := baseConfig(w)
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(16); err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{Web: w}
	q, err := ev.Quality(c.Collection(), c.Day())
	if err != nil {
		t.Fatal(err)
	}
	if q <= 0 || q > 1 {
		t.Fatalf("quality %v out of range", q)
	}
	// Empty collection scores 0.
	if q0, err := ev.Quality(store.NewMem(), 0); err != nil || q0 != 0 {
		t.Fatalf("empty quality %v err %v", q0, err)
	}
}

func TestEvaluatorFreshnessByDomain(t *testing.T) {
	w, f := testWeb(t, 23)
	c, err := New(baseConfig(w), f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{Web: w}
	byDom, err := ev.FreshnessByDomain(c.Collection(), c.Day())
	if err != nil {
		t.Fatal(err)
	}
	if len(byDom) == 0 {
		t.Fatal("no domains measured")
	}
	for dom, f := range byDom {
		if f < 0 || f > 1 {
			t.Fatalf("domain %s freshness %v", dom, f)
		}
	}
}

func TestEvaluatorRequiresWeb(t *testing.T) {
	ev := &Evaluator{}
	if _, err := ev.Freshness(store.NewMem(), 0, 0); err == nil {
		t.Fatal("nil web accepted")
	}
	if _, err := ev.Quality(store.NewMem(), 0); err == nil {
		t.Fatal("nil web accepted for quality")
	}
	if _, err := ev.AvgAge(store.NewMem(), 0); err == nil {
		t.Fatal("nil web accepted for age")
	}
	if _, err := ev.FreshnessByDomain(store.NewMem(), 0); err == nil {
		t.Fatal("nil web accepted for by-domain")
	}
}

func TestTimeAveragedFreshness(t *testing.T) {
	w, f := testWeb(t, 24)
	c, err := New(baseConfig(w), f)
	if err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{Web: w}
	avg, series, err := ev.TimeAveragedFreshness(c, 20, 4, 8, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 8 {
		t.Fatalf("series length %d", len(series))
	}
	if avg <= 0 || avg > 1 {
		t.Fatalf("avg freshness %v", avg)
	}
	var sum float64
	for i, s := range series {
		if i > 0 && s.Day <= series[i-1].Day {
			t.Fatal("series days not increasing")
		}
		sum += s.Value
	}
	if diff := sum/8 - avg; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("avg %v inconsistent with series mean %v", avg, sum/8)
	}
	// Validation.
	if _, _, err := ev.TimeAveragedFreshness(c, 1, 0, 0, 0); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, _, err := ev.TimeAveragedFreshness(c, c.Day()-1, 0, 4, 0); err == nil {
		t.Fatal("end before start accepted")
	}
	// The refusal names both days: the end asked for and the warm-up's.
	_, _, err = ev.TimeAveragedFreshness(c, c.Day()+3, 5, 4, 0)
	want := fmt.Sprintf("core: end day %g is not after the warm-up's end, day %g", c.Day()+3, c.Day()+5)
	if err == nil || err.Error() != want {
		t.Fatalf("end inside the warm-up: error %v, want %q", err, want)
	}
}

func TestPeriodicCrawler(t *testing.T) {
	w, f := testWeb(t, 25)
	cfg := baseConfig(w)
	p, err := NewPeriodic(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunUntil(9); err != nil { // two full cycles (4 days each)
		t.Fatal(err)
	}
	if p.Metrics().Swaps < 2 {
		t.Fatalf("swaps %d", p.Metrics().Swaps)
	}
	if p.Collection().Len() == 0 {
		t.Fatal("periodic collection empty after swaps")
	}
	if p.Collection().Len() > cfg.CollectionSize {
		t.Fatalf("periodic collection overgrew: %d", p.Collection().Len())
	}
	// Peak load arithmetic.
	if p.PeakLoadRatio() != cfg.CycleDays/cfg.BatchDays {
		t.Fatalf("peak ratio %v", p.PeakLoadRatio())
	}
	if p.PeakPagesPerDay() <= p.SteadyEquivalentPagesPerDay() {
		t.Fatal("batch peak not above steady rate")
	}
}

func TestPeriodicRejectsNilFetcher(t *testing.T) {
	w, _ := testWeb(t, 26)
	if _, err := NewPeriodic(baseConfig(w), nil); err == nil {
		t.Fatal("nil fetcher accepted")
	}
}

// TestIncrementalBeatsPeriodic is the headline end-to-end shape: at equal
// average bandwidth, the incremental crawler's time-averaged freshness
// must dominate the periodic crawler's (Figure 10 / Section 4).
func TestIncrementalBeatsPeriodic(t *testing.T) {
	results := make(map[string]float64)
	for _, mode := range []string{"incremental", "periodic"} {
		w, f := testWeb(t, 27)
		cfg := baseConfig(w)
		cfg.CollectionSize = 150
		cfg.PagesPerDay = 150.0 / cfg.CycleDays // one collection pass per cycle
		var r Runner
		var err error
		if mode == "incremental" {
			cfg.Mode, cfg.Update, cfg.Freq = Steady, InPlace, VariableFreq
			r, err = New(cfg, f)
		} else {
			r, err = NewPeriodic(cfg, f)
		}
		if err != nil {
			t.Fatal(err)
		}
		ev := &Evaluator{Web: w}
		avg, _, err := ev.TimeAveragedFreshness(r, 60, 8, 16, cfg.CollectionSize)
		if err != nil {
			t.Fatal(err)
		}
		results[mode] = avg
	}
	if results["incremental"] <= results["periodic"] {
		t.Fatalf("incremental %.3f did not beat periodic %.3f",
			results["incremental"], results["periodic"])
	}
}

// TestShadowingCostOrdering verifies the Table 2 ordering end-to-end on
// the live simulator: steady in-place >= batch in-place >= steady shadow.
func TestShadowingCostOrdering(t *testing.T) {
	run := func(mode Mode, upd UpdateStyle) float64 {
		w, f := testWeb(t, 28)
		cfg := baseConfig(w)
		cfg.CollectionSize = 150
		cfg.PagesPerDay = 150.0 / cfg.CycleDays
		cfg.Mode, cfg.Update, cfg.Freq = mode, upd, FixedFreq
		c, err := New(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		ev := &Evaluator{Web: w}
		avg, _, err := ev.TimeAveragedFreshness(c, 60, 12, 16, cfg.CollectionSize)
		if err != nil {
			t.Fatal(err)
		}
		return avg
	}
	steadyIn := run(Steady, InPlace)
	steadyShadow := run(Steady, Shadow)
	if steadyShadow >= steadyIn {
		t.Fatalf("steady shadow %.3f not below steady in-place %.3f", steadyShadow, steadyIn)
	}
}
