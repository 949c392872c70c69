package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact Prometheus text format: sorted
// families, HELP/TYPE headers, label escaping, cumulative histogram
// buckets with _sum and _count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "sorted last").Add(7)
	r.Gauge("aa_depth", "sorted first").Set(-3)
	v := r.CounterVec("ops_total", "ops by kind", "op", "status")
	v.With("get", "ok").Add(2)
	v.With("put", `we"ird`).Inc()
	h := r.Histogram("latency_seconds", "op latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.01) // lands in the le="0.01" bucket (le is inclusive)
	h.Observe(5)
	r.GaugeFunc("fn_value", "from a callback", func() float64 { return 42.5 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_depth sorted first
# TYPE aa_depth gauge
aa_depth -3
# HELP fn_value from a callback
# TYPE fn_value gauge
fn_value 42.5
# HELP latency_seconds op latency
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.001"} 1
latency_seconds_bucket{le="0.01"} 2
latency_seconds_bucket{le="0.1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.0105
latency_seconds_count 3
# HELP ops_total ops by kind
# TYPE ops_total counter
ops_total{op="get",status="ok"} 2
ops_total{op="put",status="we\"ird"} 1
# HELP zz_last_total sorted last
# TYPE zz_last_total counter
zz_last_total 7
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryRace hammers counters, gauges, histograms and vec
// children from many goroutines while a scraper renders the registry —
// the -race run is the assertion.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", LatencyBuckets)
	v := r.CounterVec("v_total", "", "op")
	tr := NewTrace(64)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := []string{"get", "put", "scan"}
			for j := 0; j < 2000; j++ {
				c.Inc()
				g.Add(int64(j%3 - 1))
				h.Observe(float64(j) * 1e-5)
				v.With(ops[j%len(ops)]).Inc()
				tr.Span("op", uint64(j), 1, time.Now())
			}
		}(i)
	}
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			r.Summary()
			tr.Tail(0)
		}
	}()
	wg.Wait()
	close(stop)
	<-scraperDone

	if got := c.Value(); got != 16000 {
		t.Errorf("counter = %d, want 16000", got)
	}
	if got := h.Count(); got != 16000 {
		t.Errorf("histogram count = %d, want 16000", got)
	}
	var total int64
	for _, op := range []string{"get", "put", "scan"} {
		total += v.With(op).Value()
	}
	if total != 16000 {
		t.Errorf("vec total = %d, want 16000", total)
	}
}

// TestHistogramBuckets pins the bucket search: values at a bound land
// in that bound's bucket (le is inclusive), values past the last bound
// land in +Inf.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 1.5, 10, 11} {
		h.Observe(v)
	}
	got := []uint64{h.counts[0].Load(), h.counts[1].Load(), h.counts[2].Load()}
	want := []uint64{2, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Sum() != 24 {
		t.Errorf("sum = %g, want 24", h.Sum())
	}
}

// TestReRegistration checks get-or-create semantics and conflict
// panics.
func TestReRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Error("same-name counter did not return the existing child")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestTraceTailAndHandler covers the ring wrap, ordering, and the
// /debug/trace JSONL endpoint.
func TestTraceTailAndHandler(t *testing.T) {
	tr := NewTrace(4)
	for i := 1; i <= 6; i++ {
		tr.Emit(Event{Name: "e", Round: uint64(i)})
	}
	tail := tr.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("tail holds %d events, want 4", len(tail))
	}
	for i, e := range tail {
		if want := uint64(i + 3); e.Round != want {
			t.Errorf("tail[%d].Round = %d, want %d", i, e.Round, want)
		}
	}
	if got := tr.Tail(2); len(got) != 2 || got[1].Round != 6 {
		t.Errorf("Tail(2) = %+v, want last two events ending at round 6", got)
	}

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?n=3", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3:\n%s", len(lines), rec.Body.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"ts":`) {
			t.Errorf("line %q does not look like a trace event", l)
		}
	}
}

// TestHistogramVecChildren: each label value gets its own histogram,
// With returns the same child for the same values, and the exposition
// lists the children's buckets under their labels.
func TestHistogramVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("op_seconds", "op latency", []float64{0.1, 1}, "op")
	v.With("get").Observe(0.05)
	v.With("get").Observe(0.5)
	v.With("put").Observe(2)
	if v.With("get") != v.With("get") || v.With("get") == v.With("put") {
		t.Fatal("With does not key children by label values")
	}
	if again := r.HistogramVec("op_seconds", "op latency", []float64{0.1, 1}, "op"); again.With("get") != v.With("get") {
		t.Fatal("re-registering the family returned new children")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`op_seconds_bucket{op="get",le="0.1"} 1`,
		`op_seconds_bucket{op="get",le="+Inf"} 2`,
		`op_seconds_count{op="get"} 2`,
		`op_seconds_bucket{op="put",le="1"} 0`,
		`op_seconds_count{op="put"} 1`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, sb.String())
		}
	}
}

// TestRegistryHandler: the registry's handler serves the exposition
// with the Prometheus text content type.
func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "requests").Add(3)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var want strings.Builder
	if err := r.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() || !strings.Contains(want.String(), "served_total 3\n") {
		t.Fatalf("body:\n%s\nwant:\n%s", rec.Body.String(), want.String())
	}
}

// TestTraceWriterAndTotal: an attached writer receives every event as
// one JSON line, detaching stops it, and Total counts every event
// emitted, including those the ring has dropped.
func TestTraceWriterAndTotal(t *testing.T) {
	tr := NewTrace(2)
	var sink strings.Builder
	tr.SetWriter(&sink)
	for i := 1; i <= 3; i++ {
		tr.Emit(Event{Name: "round", Round: uint64(i), N: 10 * i})
	}
	tr.SetWriter(nil)
	tr.Emit(Event{Name: "after", Round: 4})
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("writer got %d lines, want 3:\n%s", len(lines), sink.String())
	}
	for i, l := range lines {
		var e Event
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Fatalf("line %d %q: %v", i, l, err)
		}
		if e.Name != "round" || e.Round != uint64(i+1) || e.N != 10*(i+1) {
			t.Fatalf("line %d decodes to %+v", i, e)
		}
	}
	if got := tr.Total(); got != 4 {
		t.Fatalf("Total = %d, want 4", got)
	}
	if got := len(tr.Tail(0)); got != 2 {
		t.Fatalf("ring holds %d events, want its size 2", got)
	}
}

// TestSummary checks the one-line snapshot format: summed children,
// histogram counts, zero families skipped.
func TestSummary(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops_total", "", "op")
	v.With("a").Add(3)
	v.With("b").Add(4)
	r.Counter("zero_total", "") // stays zero: skipped
	r.Histogram("lat_seconds", "", LatencyBuckets).Observe(1)
	got := strings.Join(r.Summary(), " ")
	want := "lat_seconds_count=1 ops_total=7"
	if got != want {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
}
