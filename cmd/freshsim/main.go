// Command freshsim reproduces the Section 4 analytics: the freshness
// evolution curves of Figure 7, the shadowing curves of Figure 8, the
// design-choice matrix of Table 2 (with the sensitivity example), and the
// optimal revisit-frequency curve of Figure 9 with the 10-23% freshness
// gain claim.
//
// Usage:
//
//	freshsim [-only fig7|fig8|table2|sensitivity|fig9]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"webevolve/internal/freshness"
	"webevolve/internal/report"
	"webevolve/internal/simweb"
)

func main() {
	only := flag.String("only", "", "run a single artifact: fig7, fig8, table2, sensitivity, fig9 or age")
	flag.Parse()
	if err := run(*only); err != nil {
		fmt.Fprintln(os.Stderr, "freshsim:", err)
		os.Exit(1)
	}
}

func run(only string) error {
	want := func(name string) bool { return only == "" || only == name }
	if want("fig7") {
		if err := fig7(); err != nil {
			return err
		}
	}
	if want("fig8") {
		if err := fig8(); err != nil {
			return err
		}
	}
	if want("table2") {
		if err := table2(); err != nil {
			return err
		}
	}
	if want("sensitivity") {
		sensitivity()
	}
	if want("fig9") {
		if err := fig9(); err != nil {
			return err
		}
	}
	if want("age") {
		if err := ageTable(); err != nil {
			return err
		}
	}
	return nil
}

// ageTable prints the Table 2 analog under [CGM99b]'s age metric; the
// paper remarks the conclusions match the freshness metric's.
func ageTable() error {
	fmt.Println("== Age metric: Table 2 analog (lower is better) ==")
	rng := rand.New(rand.NewSource(4))
	ages, err := freshness.AgeTable2(rng, 4, cycle, week, 2000, 24)
	if err != nil {
		return err
	}
	get := func(batch, shadow bool) string {
		return fmt.Sprintf("%.3f", ages[freshness.Design{Batch: batch, Shadow: shadow}])
	}
	rows := [][]string{
		{"In-place", get(false, false), get(true, false)},
		{"Shadowing", get(false, true), get(true, true)},
	}
	fmt.Println(report.Table([]string{"(months)", "Steady", "Batch-mode"}, rows))
	fmt.Println("ordering matches the freshness metric: in-place best, steady+shadow worst.")
	fmt.Println()
	return nil
}

// paper parameters: months as the time unit.
const (
	cycle  = 1.0      // one month
	week   = 7.0 / 30 // one week in months
	lambda = 1.0 / 4  // pages change every 4 months on average
	hot    = 4.0      // high change rate for the Figure 7/8 trend plots
)

// series is a curve's points as a named chart series.
func series(name string, pts []freshness.Point) report.Series {
	s := report.Series{Name: name}
	for _, p := range pts {
		s.X = append(s.X, p.T)
		s.Y = append(s.Y, p.F)
	}
	return s
}

func fig7() error {
	fmt.Println("== Figure 7: freshness evolution, batch-mode vs steady (in-place) ==")
	batch, steady, err := freshness.Figure7Series(hot, cycle, week, 3, 40)
	if err != nil {
		return err
	}
	fmt.Println("(a) batch-mode crawler (crawl occupies the first week of each month)")
	fmt.Println(report.Lines([]report.Series{series("batch", batch)}, 72, 14))
	fmt.Println("(b) steady crawler")
	fmt.Println(report.Lines([]report.Series{series("steady", steady)}, 72, 14))
	fmt.Printf("time-averaged freshness is identical for both: %s\n\n",
		report.F(freshness.SteadyInPlace(hot, cycle)))
	return nil
}

func fig8() error {
	fmt.Println("== Figure 8: freshness with shadowing (crawler's vs current collection) ==")
	sc, scur, bc, bcur, err := freshness.Figure8Series(hot, cycle, week, 3, 40)
	if err != nil {
		return err
	}
	fmt.Println("(a) steady crawler with shadowing")
	fmt.Println(report.Lines([]report.Series{series("crawler's", sc), series("current", scur)}, 72, 14))
	fmt.Println("(b) batch-mode crawler with shadowing")
	fmt.Println(report.Lines([]report.Series{series("crawler's", bc), series("current", bcur)}, 72, 14))
	return nil
}

func table2() error {
	fmt.Println("== Table 2: expected freshness of the current collection ==")
	fmt.Println("(pages change every 4 months; monthly cycle; 1-week batch crawl)")
	m, err := freshness.Table2(4, cycle, week)
	if err != nil {
		return err
	}
	get := func(batch, shadow bool) string {
		return fmt.Sprintf("%.2f", m[freshness.Design{Batch: batch, Shadow: shadow}])
	}
	rows := [][]string{
		{"In-place", get(false, false), get(true, false), "0.88 / 0.88"},
		{"Shadowing", get(false, true), get(true, true), "0.77 / 0.86"},
	}
	fmt.Println(report.Table([]string{"", "Steady", "Batch-mode", "paper (steady/batch)"}, rows))

	// Cross-validate the closed forms with a Monte-Carlo simulation.
	fmt.Println("Monte-Carlo cross-check (5000 pages, 240 cycles):")
	rng := rand.New(rand.NewSource(7))
	const n, horizon, warm = 5000, 24.0, 4.0
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = lambda
	}
	type check struct {
		name  string
		sched freshness.SyncSchedule
		want  float64
	}
	checks := []check{
		{"steady/in-place", freshness.ScheduleSteadyInPlace(n, cycle, horizon), m[freshness.Design{}]},
		{"batch/in-place", freshness.ScheduleBatchInPlace(n, cycle, week, horizon), m[freshness.Design{Batch: true}]},
		{"steady/shadow", freshness.ScheduleSteadyShadow(n, cycle, horizon), m[freshness.Design{Shadow: true}]},
		{"batch/shadow", freshness.ScheduleBatchShadow(n, cycle, week, horizon), m[freshness.Design{Batch: true, Shadow: true}]},
	}
	for _, c := range checks {
		got, err := freshness.SimulateAvgFreshness(rng, rates, c.sched, warm, horizon, 200)
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s analytic %.4f  simulated %.4f\n", c.name, c.want, got)
	}
	fmt.Println()
	return nil
}

func sensitivity() {
	fmt.Println("== Section 4 sensitivity example ==")
	fmt.Println("(pages change monthly; batch crawler operates the first 2 weeks of each month)")
	inPlace := freshness.BatchInPlace(1, 1)
	shadow := freshness.BatchShadow(1, 1, 0.5)
	fmt.Printf("  in-place: %.2f (paper 0.63)   shadowing: %.2f (paper 0.50)\n\n", inPlace, shadow)
}

func fig9() error {
	fmt.Println("== Figure 9: change frequency vs optimal revisit frequency ==")
	// Shape plot: rates spread over two decades around the revisit
	// budget, so the curve's rise and fall are both visible.
	var rates []float64
	for i := 0; i < 400; i++ {
		rates = append(rates, 0.02*pow(1.02, i))
	}
	budget := float64(len(rates)) // one visit per page per unit time
	pts, err := freshness.Figure9Curve(rates, budget)
	if err != nil {
		return err
	}
	fmt.Println(report.Lines([]report.Series{series("f* (optimal revisit frequency)", pts)}, 72, 16))
	fmt.Println("note the unimodal shape: revisit frequency rises with change")
	fmt.Println("frequency up to a point, then falls — very fast pages are not")
	fmt.Println("worth refreshing (the paper's p1/p2 example).")

	// Gain claim: use the web-like rate distribution measured in the
	// Section 3 experiment (the calibrated domain mixtures weighted by
	// Table 1's site counts) with a monthly-refresh budget, the paper's
	// operating point.
	webRates := mixtureSample(4000)
	fmt.Println("\ngain of optimal over uniform allocation on the web-like workload")
	fmt.Println("(paper/[CGM99b]: 10%-23%, larger when bandwidth is scarce):")
	for _, per := range []float64{10, 30, 60, 120, 240} {
		opt, uni, gain, err := freshness.AllocationGain(webRates, float64(len(webRates))/per)
		if err != nil {
			return err
		}
		fmt.Printf("  avg revisit every %4.0f days: optimal %.4f  uniform %.4f  gain %+.1f%%\n",
			per, opt, uni, 100*gain)
	}
	fmt.Println()
	return nil
}

// mixtureSample draws n change rates (changes/day) from the calibrated
// per-domain mixtures weighted by Table 1's site counts.
func mixtureSample(n int) []float64 {
	w, err := simweb.New(simweb.Config{
		Seed: 99,
		SitesPerDomain: map[simweb.Domain]int{
			simweb.Com: 13, simweb.Edu: 8, simweb.NetOrg: 3, simweb.Gov: 3,
		},
		PagesPerSite: (n + 26) / 27,
	})
	if err != nil {
		panic(err)
	}
	var rates []float64
	for _, s := range w.Sites() {
		for _, p := range s.AlivePages(0) {
			rates = append(rates, p.Rate())
			if len(rates) >= n {
				return rates
			}
		}
	}
	return rates
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}
