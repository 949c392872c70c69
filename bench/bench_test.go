package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"webevolve/internal/serve"
	"webevolve/internal/store"
)

func testParams(t *testing.T, workload string, seconds float64) params {
	t.Helper()
	return params{workload: workload, seed: 7, seconds: seconds, setups: 1, outDir: t.TempDir(), tmpRoot: t.TempDir()}
}

// A traced run must take the code path the plain run takes: the decorators
// forward every optional interface the engine asserts (ApplyRound, Err,
// ScanFrom, ...), so a 2-day crawl builds the identical collection with and
// without them — in memory and over the cluster, which must agree too.
func TestDecoratorsAreTransparent(t *testing.T) {
	digests := map[string]string{}
	for _, workload := range []string{crawlMem, crawlClusterDisk} {
		p := testParams(t, workload, 0.5) // 2 virtual days
		plain, _, err := measureOnce(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, _, err := measureOnce(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, ps := range []*pass{plain, traced} {
			if len(ps.problems) > 0 {
				t.Errorf("%s: output checks failed: %v", workload, ps.problems)
			}
		}
		if plain.detail.Fetches == 0 || plain.detail.Digest != traced.detail.Digest || plain.detail.Fetches != traced.detail.Fetches {
			t.Errorf("%s: plain %s/%d fetches, traced %s/%d", workload,
				plain.detail.Digest, plain.detail.Fetches, traced.detail.Digest, traced.detail.Fetches)
		}
		if plain.detail.Freshness != traced.detail.Freshness || plain.detail.AgeDays != traced.detail.AgeDays {
			t.Errorf("%s: freshness/age differ: %v/%v vs %v/%v", workload,
				plain.detail.Freshness, plain.detail.AgeDays, traced.detail.Freshness, traced.detail.AgeDays)
		}
		// The engine's batched round path stays engaged behind the
		// decorator, and every fetch is seen.
		if traced.layer["frontier.apply_round.calls"] == 0 || traced.layer["frontier.pop.calls"] != 0 {
			t.Errorf("%s: traced frontier left the round fast path: %v ApplyRound, %v pops", workload,
				traced.layer["frontier.apply_round.calls"], traced.layer["frontier.pop.calls"])
		}
		if got := traced.layer["fetch.calls"]; got != float64(traced.detail.Fetches) {
			t.Errorf("%s: %v fetch spans for %d fetches", workload, got, traced.detail.Fetches)
		}
		digests[workload] = plain.detail.Digest
	}
	if digests[crawlMem] != digests[crawlClusterDisk] {
		t.Errorf("crawl_cluster_disk built %s, crawl_mem %s", digests[crawlClusterDisk], digests[crawlMem])
	}
}

// staleView holds every request of the first generation between its View
// and its read until a Swap has landed — the window in which a swap fails a
// request. None of them completes before the swap, so none is answered from
// the cache.
type staleView struct{ inner serve.Source }

func (s staleView) View() (store.Reader, uint64) {
	r, gen := s.inner.View()
	for now := gen; gen == 0 && now == 0; _, now = s.inner.View() {
		time.Sleep(100 * time.Microsecond)
	}
	return r, gen
}

// One short traced pass over the live serving workload, with the first
// requests held in the View-to-read window across a swap: the requests a
// swap fails are counted, by the client and by the server's 5xx counter
// alike, without failing the output checks; every other response verifies,
// and store reads are parented by their request's handler.
func TestServeLiveTraced(t *testing.T) {
	tr := newTracer()
	p := testParams(t, serveLive, 5)
	p.wrapSource = func(src serve.Source) serve.Source { return staleView{src} }
	ps, _, err := measureOnce(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.problems) > 0 {
		t.Fatalf("output checks failed: %v", ps.problems)
	}
	l := ps.layer
	if n := ps.detail.StoreClosed; n == 0 || ps.failed != n || l["serve.status_5xx"] != float64(n) {
		t.Errorf("%d requests failed, %d of them on a closed store, server counted %v 5xx: want all equal and above 0",
			ps.failed, n, l["serve.status_5xx"])
	}
	if l["store.swap.calls"] < 1 || l["serve.gen_switches"] != l["store.swap.calls"] || l["serve.cache.flushes"] < 1 {
		t.Errorf("swaps %v, generation switches %v, cache flushes %v", l["store.swap.calls"], l["serve.gen_switches"], l["serve.cache.flushes"])
	}
	orphans, gets := 0, 0
	for i := int32(0); i < int32(tr.n.Load()); i++ {
		if s := tr.at(i); s.name == spanStoreGet {
			gets++
			if s.parent == tr.root || tr.at(s.parent).name != spanServeHandler || tr.at(s.parent).req != s.req {
				orphans++
			}
		}
	}
	if gets == 0 || orphans > 0 {
		t.Errorf("%d of %d store.get spans are not under their request's handler", orphans, gets)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailPercentile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// At the chosen percentile at least ten samples lie beyond.
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	s := summarize(vals, 0.99)
	if beyond := 40 - int(s.Tail); beyond < 10 || s.P50 != 20 {
		t.Errorf("summary %+v leaves %d samples beyond the tail", s, beyond)
	}
	if got := tailPercentile(1000, 0.75); got != 0.75 {
		t.Errorf("limit 0.75 gives %v", got)
	}
}

// A server that stalls must cost every request that fell due during the
// stall, not just the one that hit it: latency counts from the due time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	var mu sync.Mutex
	var lat []time.Duration
	first := true
	openLoop(1, 1000, 60*time.Millisecond, func(_ int, _ int64, due time.Time) {
		if first {
			first = false
			time.Sleep(stall)
		}
		mu.Lock()
		lat = append(lat, time.Since(due))
		mu.Unlock()
	})
	if len(lat) != 60 {
		t.Fatalf("sent %d requests, want 60", len(lat))
	}
	// Request i was due i ms in; the stall ended at >= 40 ms.
	for i := 0; i < 30; i++ {
		if want := stall - time.Duration(i)*time.Millisecond; lat[i] < want {
			t.Fatalf("request %d reports %v, but it was due %v before the stall ended", i, lat[i], want)
		}
	}
}

func TestPromDelta(t *testing.T) {
	start := parseProm([]byte(`# HELP webevolve_x_total things
# TYPE webevolve_x_total counter
webevolve_x_total 5
webevolve_op_seconds_sum{op="push"} 1.5
webevolve_op_seconds_sum{op="pop due"} 0.25
webevolve_responses_total{status="200"} 10
`))
	end := parseProm([]byte(`webevolve_x_total 12
webevolve_op_seconds_sum{op="push"} 2
webevolve_op_seconds_sum{op="pop due"} 1.25
webevolve_op_seconds_bucket{op="push",le="+Inf"} 9
webevolve_responses_total{status="200"} 30
webevolve_responses_total{status="500"} 2
webevolve_responses_total{status="503"} 1
not a sample
`))
	d := promDelta(start, end)
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"counter", d["webevolve_x_total"], 7},
		{"labelled series", d[`webevolve_op_seconds_sum{op="push"}`], 0.5},
		{"label value with a space", d[`webevolve_op_seconds_sum{op="pop due"}`], 1},
		{"family sum", d.sum("webevolve_op_seconds_sum"), 1.5},
		{"series new at the end", d.sumWhere("webevolve_responses_total", "status", "5"), 3},
		{"absent", d["webevolve_nothing"], 0},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s: got %v, want %v", c.what, c.got, c.want)
		}
	}
}

// A span's self time is its duration minus the union of its children's
// intervals, clipped to its own.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.start()
	set := func(i int32, start, end int64) { s := tr.at(i); s.start, s.end = start, end }
	set(tr.root, 0, 1000)
	a := tr.begin(spanServeHandler, tr.root, 0)
	set(a, 100, 500)
	set(tr.begin(spanStoreGet, a, 0), 150, 250)
	set(tr.begin(spanStoreGet, a, 0), 200, 300)  // overlaps the first
	set(tr.begin(spanStoreScan, a, 0), 450, 600) // runs past its parent
	lt := tr.analyze()
	if got := lt[spanServeHandler].selfS * 1e9; math.Abs(got-(400-150-50)) > 1e-6 {
		t.Errorf("handler self time %v ns, want 200", got)
	}
	if got := lt[spanRun].selfS * 1e9; math.Abs(got-600) > 1e-6 {
		t.Errorf("run self time %v ns, want 600", got)
	}
	if lt[spanStoreGet].calls != 2 || math.Abs(lt[spanStoreGet].selfS*1e9-200) > 1e-6 {
		t.Errorf("store.get: %+v", lt[spanStoreGet])
	}
}

func TestWorseBy(t *testing.T) {
	up, _ := specByName(endToEnd, "ops_per_s")
	down, _ := specByName(endToEnd, "op_p50_us")
	if got := worseBy(up, 100, 88); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("throughput 100 -> 88 is worse by %v, want 0.12", got)
	}
	if got := worseBy(down, 100, 112); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("latency 100 -> 112 is worse by %v, want 0.12", got)
	}
	if worseBy(up, 100, 120) >= 0 || worseBy(down, 100, 80) >= 0 {
		t.Error("an improvement must not count as worse")
	}
}

// compare must fail on what a regression looks like in a results file: a
// run that is missing, failed its checks or failed more requests, and a
// steady ISSUE 11 metric beyond the issue's bound — and on nothing else.
func TestCompareSets(t *testing.T) {
	set := func(edit func(*runRecord)) *resultSet {
		rec := runRecord{
			Workload: crawlClusterDisk,
			Result:   result{Correct: true, Attempted: 1000, Metrics: map[string]metricValue{}},
			Issue: map[string]float64{
				"pages_per_s": 1000, "wire_bytes_per_page": 300, "disk_bytes_per_page": 2000,
				"freshness_end": 0.5, "age_end_days": 2, "failed_share": 0,
			},
		}
		for _, m := range endToEnd {
			rec.Result.Metrics[m.Name] = metricValue{Value: 100, Unit: m.Unit}
		}
		s := &resultSet{Workloads: []string{crawlClusterDisk}}
		if edit != nil {
			edit(&rec)
		}
		if rec.Workload != "" {
			s.Runs = []runRecord{rec}
		}
		return s
	}
	for _, c := range []struct {
		what string
		b    func(*runRecord)
		want int
	}{
		{"identical", nil, 0},
		{"run missing", func(r *runRecord) { r.Workload = "" }, 1},
		{"output check failed", func(r *runRecord) { r.Result.Correct = false }, 1},
		{"failed share +0.002", func(r *runRecord) { r.Issue["failed_share"] = 0.002 }, 1},
		{"failed share +0.0005", func(r *runRecord) { r.Issue["failed_share"] = 0.0005 }, 0},
		{"wire bytes +3%", func(r *runRecord) { r.Issue["wire_bytes_per_page"] = 309 }, 1},
		{"disk bytes +1%", func(r *runRecord) { r.Issue["disk_bytes_per_page"] = 2020 }, 0},
		{"freshness -1%", func(r *runRecord) { r.Issue["freshness_end"] = 0.495 }, 1},
		{"pages_per_s -20%: not steady here, gated as ops_per_s at 25%", func(r *runRecord) { r.Issue["pages_per_s"] = 800 }, 0},
		{"ops_per_s -30%", func(r *runRecord) {
			r.Result.Metrics["ops_per_s"] = metricValue{Value: 70, Unit: "1/s"}
		}, 1},
	} {
		if got := compareSets(set(nil), set(c.b)); got != c.want {
			t.Errorf("%s: compare returned %d, want %d", c.what, got, c.want)
		}
	}
}

// BENCHMARK.json is generated from spec.go and obeys the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json is stale: regenerate with `go run -C bench . spec > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if m, ok := specByName(endToEnd, "setup_s"); !ok || m.Unit != "s" || m.Better != lower {
		t.Error("setup_s must be an end-to-end metric in seconds, lower better")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(want))
	}
}
