package scheduler

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"webevolve/internal/freshness"
)

func TestClamp(t *testing.T) {
	cases := []struct{ in, min, max, want float64 }{
		{5, 1, 10, 5},
		{0.5, 1, 10, 1},
		{20, 1, 10, 10},
		{-3, 1, 10, 10},         // non-positive -> max
		{math.NaN(), 1, 10, 10}, // NaN -> max
		{0, 1, 10, 10},          // zero -> max
	}
	for _, c := range cases {
		if got := Clamp(c.in, c.min, c.max); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFixed(t *testing.T) {
	p := Fixed{Every: 30}
	if p.Interval(0, 99) != 30 {
		t.Fatal("fixed interval not fixed")
	}
	if p.Name() != "fixed" {
		t.Fatal(p.Name())
	}
}

func TestProportional(t *testing.T) {
	p := Proportional{MinDays: 0.5, MaxDays: 100}
	// rate 0.25/day, one visit per change -> 4 days.
	if got := p.Interval(0, 0.25); got != 4 {
		t.Fatalf("interval %v", got)
	}
	// Unknown rate -> max.
	if got := p.Interval(0, 0); got != 100 {
		t.Fatalf("zero-rate interval %v", got)
	}
	// Very fast -> clamped to min.
	if got := p.Interval(0, 1000); got != 0.5 {
		t.Fatalf("fast interval %v", got)
	}
	if p.Name() != "proportional" {
		t.Fatal(p.Name())
	}
}

func TestNewOptimalValidation(t *testing.T) {
	if _, err := NewOptimal(0, 1, 10, 5); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewOptimal(1, 0, 10, 5); err == nil {
		t.Fatal("zero min accepted")
	}
	if _, err := NewOptimal(1, 10, 5, 5); err == nil {
		t.Fatal("max < min accepted")
	}
	if _, err := NewOptimal(1, 1, 10, 0); err == nil {
		t.Fatal("zero default accepted")
	}
}

// pageRates lists a url -> rate map as Rebuild's input, in map order,
// with IDs handed out in reverse URL order: a plan that confused a
// page's ID with its place in URL order would show. It returns the IDs
// too.
func pageRates(rates map[string]float64) ([]PageRate, map[string]int32) {
	urls := make([]string, 0, len(rates))
	for u := range rates {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	ids := make(map[string]int32, len(urls))
	for i, u := range urls {
		ids[u] = int32(len(urls) - 1 - i)
	}
	pages := make([]PageRate, 0, len(rates))
	for u, r := range rates {
		pages = append(pages, PageRate{ID: ids[u], URL: u, Rate: r})
	}
	return pages, ids
}

func TestOptimalRebuildAndInterval(t *testing.T) {
	o, err := NewOptimal(10, 0.1, 1000, 30)
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for i := 0; i < 20; i++ {
		rates[fmt.Sprintf("http://s.com/p%02d", i)] = 0.05 * float64(i+1)
	}
	// The plan the map hand-off used to produce: allocate over the rates
	// in URL order, invert, clamp.
	urls := make([]string, 0, len(rates))
	for u := range rates {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	rs := make([]float64, len(urls))
	for i, u := range urls {
		rs[i] = rates[u]
	}
	fs, err := freshness.OptimalAllocation(rs, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild gets the pages in map order, i.e. shuffled: the plan must
	// not depend on it, down to the bit.
	pages, ids := pageRates(rates)
	if err := o.Rebuild(pages); err != nil {
		t.Fatal(err)
	}
	if o.PlanSize() != 20 {
		t.Fatalf("plan size %d", o.PlanSize())
	}
	for i, u := range urls {
		want := Clamp(1/fs[i], 0.1, 1000)
		if got := o.Interval(ids[u], rates[u]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: interval %v, want %v", u, got, want)
		}
	}
	// Unknown pages get the default, with a rate estimate or without.
	if got := o.Interval(20, 0.5); got != 30 {
		t.Fatalf("unknown-page interval %v", got)
	}
	if got := o.Interval(-1, 0); got != 30 {
		t.Fatalf("default interval %v", got)
	}
	if o.Name() != "optimal" {
		t.Fatal(o.Name())
	}
}

// TestOptimalOutOfPlanUsesDefault: a page absent from the plan is
// scheduled at DefaultDays however fast it changes — at 50 changes a
// day, 1/rate would clamp to MinDays — and each such reschedule counts
// on webevolve_scheduler_out_of_plan_total, while a planned page's
// does not.
func TestOptimalOutOfPlanUsesDefault(t *testing.T) {
	o, err := NewOptimal(10, 0.25, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	// IDs 0 and 5 are planned; 3, inside the plan's range, is not.
	if err := o.Rebuild([]PageRate{{5, "http://a.com/", 1}, {0, "http://b.com/", 0.1}}); err != nil {
		t.Fatal(err)
	}
	before := outOfPlan.Value()
	for _, id := range []int32{3, 6} {
		if got := o.Interval(id, 50); got != o.DefaultDays {
			t.Fatalf("out-of-plan page %d changing 50/day: interval %v, want DefaultDays %v (MinDays %v)", id, got, o.DefaultDays, o.MinDays)
		}
	}
	if got := outOfPlan.Value() - before; got != 2 {
		t.Fatalf("out-of-plan counter moved by %d, want 2", got)
	}
	if got := o.Interval(5, 50); got == o.DefaultDays {
		t.Fatalf("planned page got the default %v", got)
	}
	if got := outOfPlan.Value() - before; got != 2 {
		t.Fatalf("a planned page moved the out-of-plan counter to %d", got)
	}
}

func TestOptimalRebuildEmpty(t *testing.T) {
	o, err := NewOptimal(10, 0.1, 1000, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	if o.PlanSize() != 0 {
		t.Fatal("empty rebuild left a plan")
	}
}

func TestOptimalSanitizesBadRates(t *testing.T) {
	o, err := NewOptimal(5, 0.1, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Rebuild([]PageRate{
		{0, "http://a.com/", math.NaN()},
		{1, "http://b.com/", math.Inf(1)},
		{2, "http://c.com/", -3},
		{3, "http://d.com/", 0.2},
	}); err != nil {
		t.Fatal(err)
	}
	if o.PlanSize() != 4 {
		t.Fatalf("plan size %d", o.PlanSize())
	}
}

func TestOptimalBudgetReflectedInIntervals(t *testing.T) {
	// With equal rates, the optimal plan must revisit everyone at about
	// n/budget days.
	o, err := NewOptimal(10, 0.01, 10000, 30)
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for i := 0; i < 100; i++ {
		rates[fmt.Sprintf("http://e.com/p%03d", i)] = 0.1
	}
	pages, ids := pageRates(rates)
	if err := o.Rebuild(pages); err != nil {
		t.Fatal(err)
	}
	for u := range rates {
		iv := o.Interval(ids[u], 0.1)
		if math.Abs(iv-10) > 0.5 { // 100 pages / 10 visits/day
			t.Fatalf("interval %v, want ~10", iv)
		}
	}
}
