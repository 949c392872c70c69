package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"webevolve/internal/serve"
)

// params select and size one run. Everything the program under test sees
// is generated from seed.
type params struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	setups   int    // set-ups timed per run; the median is setup_s
	outDir   string // results, traces
	tmpRoot  string // scratch for disk-backed workloads, inside outDir
	// wrapSource, set only by tests, stands between the serve workloads'
	// server and its source.
	wrapSource func(serve.Source) serve.Source
}

// instance is one prepared, single-use workload.
type instance interface {
	measure() (*pass, error)
	close() error
}

// pass is what one measured pass over a workload produced.
type pass struct {
	attempted, failed int64
	problems          []string           // failed output checks
	e2e               map[string]float64 // end-to-end metrics, setup_s aside
	layer             map[string]float64 // per-layer metrics; traced passes fill most
	detail            detail
}

// detail is the part of a run's record that is not a metric: what the
// deterministic outcomes were and how the timings were summarised.
type detail struct {
	Digest    string  `json:"digest,omitempty"` // crawl: collection digest
	Fetches   int64   `json:"fetches,omitempty"`
	Records   int     `json:"records,omitempty"`
	Freshness float64 `json:"freshness_end,omitempty"`
	AgeDays   float64 `json:"age_end_days,omitempty"`
	WallS     float64 `json:"wall_s"`
	OpsPerS   float64 `json:"ops_per_s"` // of this pass, traced or not; trace.overhead_pct is their ratio
	// serve_live: requests answered 500 "store: closed", counted in failed.
	StoreClosed int64    `json:"store_closed_500,omitempty"`
	Op          timing   `json:"op"`             // the samples behind op_p50_us / op_tail_us
	List        *timing  `json:"list,omitempty"` // serve: listing requests, ms
	Problems    []string `json:"problems,omitempty"`
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (ps *pass) problem(format string, args ...any) {
	if len(ps.problems) < 20 {
		ps.problems = append(ps.problems, fmt.Sprintf(format, args...))
	}
}

// setWindow derives throughput and CPU cost from the samples bracketing
// the measured window and the operations completed in it. Peak RSS is read
// where the window closes — each run is its own process, so it is the
// run's — before the output checks (a collection scan over the wire, the
// reopened directories) add their own.
func (ps *pass) setWindow(start, end procSample, ops int64) {
	wall := end.at.Sub(start.at).Seconds()
	ps.detail.WallS = wall
	ps.detail.OpsPerS = float64(ops) / wall
	ps.e2e["ops_per_s"] = ps.detail.OpsPerS
	ps.e2e["cpu_us_per_op"] = (end.cpuS - start.cpuS) * 1e6 / float64(ops)
	ps.e2e["peak_rss_mb"] = end.peakRSSMB
}

// timedSetups is how many set-ups an untraced run times for setup_s: a
// crawl set-up takes 15-50 ms and a serve set-up 200 ms, so either way
// about a second goes into a median steady enough to compare.
func timedSetups(workload string) int {
	switch workload {
	case serveStatic, serveLive:
		return 7
	}
	return 15
}

func setupWorkload(p params, tr *tracer) (instance, error) {
	switch p.workload {
	case crawlMem, crawlClusterDisk, crawlLatency:
		return setupCrawl(p, tr)
	case serveStatic, serveLive:
		return setupServe(p, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", p.workload)
}

// measureOnce sets the workload up p.setups times (tearing all but the last
// down again), measures once and tears down. setupS holds every set-up's
// time.
func measureOnce(p params, tr *tracer) (ps *pass, setupS []float64, err error) {
	var inst instance
	for i := 0; i < max(p.setups, 1); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("teardown: %w", err)
			}
			runtime.GC()
		}
		t0 := time.Now()
		if inst, err = setupWorkload(p, tr); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	ps, err = inst.measure()
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	return ps, setupS, err
}

// metricValue and result are the line the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as kept in results.json: the driver line, ISSUE 11's
// names for the same measurements, and the detail behind them.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Result   result             `json:"result"`
	Issue    map[string]float64 `json:"issue_metrics,omitempty"` // untraced runs
	Detail   detail             `json:"detail"`
}

// issueValues names an untraced pass's measurements as ISSUE 11 does.
func issueValues(workload string, ps *pass) map[string]float64 {
	source := map[string]float64{
		"setup_s":             ps.e2e["setup_s"],
		"pages_per_s":         ps.e2e["ops_per_s"],
		"req_per_s":           ps.e2e["ops_per_s"],
		"cpu_us_per_page":     ps.e2e["cpu_us_per_op"],
		"peak_rss_mb":         ps.e2e["peak_rss_mb"],
		"freshness_end":       ps.layer["crawl.freshness_end"],
		"age_end_days":        ps.layer["crawl.age_end_days"],
		"wire_bytes_per_page": ps.layer["cluster.wire_bytes_per_page"],
		"disk_bytes_per_page": ps.layer["store.disk_bytes_per_page"],
		"get_p50_us":          ps.layer["serve.get_p50_us"],
		"get_p99_us":          ps.layer["serve.get_p99_us"],
		"list_p50_ms":         ps.layer["serve.list_p50_ms"],
		"failed_share":        float64(ps.failed) / float64(ps.attempted),
	}
	out := map[string]float64{}
	for _, m := range issueMetrics {
		if m.reportedBy(workload) {
			out[m.Name] = source[m.Name]
		}
	}
	return out
}

// runOne performs one driver run: untraced it measures the plain workload
// and reports the end-to-end metrics; traced it measures the workload behind
// the decorators and reports the per-layer metrics. Both make the same
// output checks, and the set form compares the two runs' deterministic
// outcomes (crossChecks).
func runOne(p params) (*runRecord, error) {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(p.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	p.tmpRoot = tmp

	rec := &runRecord{Workload: p.workload, Seed: p.seed, Seconds: p.seconds, Traced: p.traced}
	var tr *tracer
	if p.traced {
		tr = newTracer()
	}
	ps, setupS, err := measureOnce(p, tr)
	if err != nil {
		return nil, err
	}
	specs, values := endToEnd, ps.e2e
	if !p.traced {
		values["setup_s"] = median(setupS)
		rec.Issue = issueValues(p.workload, ps)
	} else {
		ps.layer["failed_share"] = float64(ps.failed) / float64(ps.attempted)
		if err := tr.writeJSONL(filepath.Join(p.outDir, p.workload+".trace.jsonl")); err != nil {
			return nil, err
		}
		specs, values = perLayer, ps.layer
	}

	rec.Detail = ps.detail
	rec.Detail.Problems = ps.problems
	rec.Result = result{
		Correct:   len(ps.problems) == 0,
		Attempted: ps.attempted,
		Failed:    ps.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, m := range specs {
		rec.Result.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	for name := range values {
		if _, ok := specByName(specs, name); !ok {
			return nil, fmt.Errorf("metric %q is measured but not in the spec", name)
		}
	}
	return rec, nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
