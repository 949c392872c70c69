// Package obs is the observability plane shared by every webevolve
// binary: a dependency-free metrics registry (atomic counters, gauges,
// histograms with fixed log-scale buckets, labeled families), a
// Prometheus-text-format exposition handler, and a JSONL trace sink
// for the engine's round pipeline (trace.go).
//
// The package is deliberately stdlib-only and allocation-light on the
// hot path: a counter increment is one atomic add, a histogram
// observation is a binary search over a fixed bucket table plus two
// atomic adds. Instrumented packages declare their families as
// package-level variables against Default; binaries expose them
// through internal/daemon's -metrics-listen debug listener.
//
// Registering a family that already exists returns the existing one
// when the kind, help and label names match (so two subsystems — or
// two instances of one subsystem — can share a family), and panics
// when they conflict: a name collision across kinds is a programming
// error. Func-backed gauges are the exception: re-registering replaces
// the callback, so the most recently constructed instance is the one
// scraped.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Package-level instrumentation
// registers here; tests that need isolation build their own via
// NewRegistry.
var Default = NewRegistry()

// Registry holds metric families. All methods are safe for concurrent
// use, including exposition while writers are active.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// metric kinds
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric family: a kind, a help string, a label
// schema, and one child per label-value combination (one unlabeled
// child when the schema is empty).
type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]any // Counter / Gauge / Histogram, keyed by joined label values
	fn       func() float64 // func-backed gauge; nil otherwise
}

// labelKey joins label values unambiguously (values cannot contain
// \xff in practice; ops/phases/status codes are short identifiers).
func labelKey(lvs []string) string { return strings.Join(lvs, "\xff") }

// lookup returns the family, creating it if absent, and panics on a
// conflicting re-registration.
func (r *Registry) lookup(name, help, kind string, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   labels,
		buckets:  buckets,
		children: make(map[string]any),
	}
	r.fams[name] = f
	return f
}

// child returns the family's child for the given label values,
// creating it with make on first use.
func (f *family) child(lvs []string, make func() any) any {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(lvs)))
	}
	key := labelKey(lvs)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = make()
		f.children[key] = c
	}
	return c
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (cumulative at
// exposition time, per-bucket internally) and tracks their sum.
type Histogram struct {
	bounds []float64       // upper bounds; observations > last land in +Inf
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at
// exposition time — for values some other structure already tracks
// (queue lengths, open collections). Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns) an unlabeled histogram with the
// given bucket upper bounds (strictly increasing; see LatencyBuckets
// and BytesBuckets for the standard log-scale tables).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, kindHistogram, buckets, nil)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, kindCounter, nil, labels)}
}

// With returns the child counter for the given label values. Callers
// on hot paths should cache the child rather than calling With per
// event.
func (v *CounterVec) With(lvs ...string) *Counter {
	return v.f.child(lvs, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, help, kindHistogram, buckets, labels)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(lvs ...string) *Histogram {
	return v.f.child(lvs, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// ExpBuckets returns n exponentially spaced bucket upper bounds
// starting at start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets is the standard log-scale table for durations in
// seconds: 25µs to ~105s in ×4 steps. Loopback wire ops sit in the
// bottom buckets, polite live fetches in the top.
var LatencyBuckets = ExpBuckets(25e-6, 4, 12)

// BytesBuckets is the standard log-scale table for sizes in bytes:
// 64 B to 256 MiB in ×4 steps (the wire's frame cap is 64 MiB).
var BytesBuckets = ExpBuckets(64, 4, 12)
