package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span per call across a layer boundary. Spans
// live in memory until the run ends; nothing here runs in an untraced run,
// which is built without the decorators altogether.

type spanName uint8

const (
	spanRun spanName = iota
	spanFetch
	spanFrontierApplyRound
	spanFrontierPop
	spanFrontierPush
	spanFrontierOther
	spanStorePutBatch
	spanStoreGet
	spanStoreScan
	spanStoreSwap
	spanStoreOther
	spanClientRequest
	spanServeHandler
	spanServeView
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"run", "fetch", "frontier.apply_round", "frontier.pop", "frontier.push", "frontier.other",
	"store.put_batch", "store.get", "store.scan", "store.swap", "store.other",
	"client.request", "serve.handler", "serve.view",
}

const noSpan int32 = -1

// span times are nanoseconds since the run span opened. req is the
// request identifier shared by all spans of one serve request (the index of
// its client.request span, carried in the X-Bench-Req header), 0 otherwise.
type span struct {
	start, end int64
	parent     int32
	req        int32
	name       spanName
}

const (
	chunkBits = 14
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 10 // 16M spans
)

// tracer is an append-only span table: begin claims an index with one
// atomic add, so concurrent layers never contend on a lock.
type tracer struct {
	t0     time.Time
	n      atomic.Int64
	chunks [maxChunks]atomic.Pointer[[chunkSize]span]
	allocM sync.Mutex

	// open maps the store key of each serve request in flight (its page
	// URL, or its listing prefix) to the request's handler span. The read
	// API carries no request identity, so a store read under the handler
	// finds its parent by the key it reads. (The calling goroutine would
	// identify it too, but the only portable way to ask — parsing
	// runtime.Stack — costs ~18 us at a handler's stack depth, a third of
	// a request.)
	openMu sync.Mutex
	open   map[string][]int32
	root   int32
	active atomic.Bool // inside the measured window; outside it nothing is recorded
}

func newTracer() *tracer {
	return &tracer{root: noSpan, open: map[string][]int32{}}
}

// start opens the run span: the measured window begins. Set-up before it
// and output checks after finish pass through the decorators unrecorded.
func (t *tracer) start() {
	t.t0 = time.Now()
	t.root = t.newSpan(spanRun, noSpan, 0)
	t.active.Store(true) // publishes t0 and root to the goroutines already running
}

func (t *tracer) at(i int32) *span {
	return &t.chunks[i>>chunkBits].Load()[i&(chunkSize-1)]
}

func (t *tracer) begin(name spanName, parent, req int32) int32 {
	if !t.active.Load() {
		return noSpan
	}
	return t.newSpan(name, parent, req)
}

func (t *tracer) newSpan(name spanName, parent, req int32) int32 {
	i := t.n.Add(1) - 1
	if i >= maxChunks*chunkSize {
		panic("bench: span table full")
	}
	c := &t.chunks[i>>chunkBits]
	if c.Load() == nil {
		t.allocM.Lock()
		if c.Load() == nil {
			c.Store(new([chunkSize]span))
		}
		t.allocM.Unlock()
	}
	s := t.at(int32(i))
	*s = span{start: int64(time.Since(t.t0)), parent: parent, req: req, name: name}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i != noSpan {
		t.at(i).end = int64(time.Since(t.t0))
	}
}

// beginUnder opens a span under the handler span of the open request
// reading key, or under the run span when there is none (every crawl span,
// and the serve writer's).
func (t *tracer) beginUnder(name spanName, key string) int32 {
	if !t.active.Load() {
		return noSpan
	}
	parent, req := t.root, int32(0)
	t.openMu.Lock()
	if spans := t.open[key]; len(spans) > 0 {
		parent = spans[len(spans)-1]
		req = t.at(parent).req
	}
	t.openMu.Unlock()
	return t.begin(name, parent, req)
}

// enter registers span i as the handler of the request reading key until
// the returned function runs.
func (t *tracer) enter(key string, i int32) func() {
	t.openMu.Lock()
	t.open[key] = append(t.open[key], i)
	t.openMu.Unlock()
	return func() {
		t.openMu.Lock()
		spans := t.open[key]
		for j, s := range spans {
			if s == i {
				spans = append(spans[:j], spans[j+1:]...)
				break
			}
		}
		if len(spans) == 0 {
			delete(t.open, key)
		} else {
			t.open[key] = spans
		}
		t.openMu.Unlock()
	}
}

// finish closes the run span and the measured window.
func (t *tracer) finish() {
	t.end(t.root)
	t.active.Store(false)
}

// layerTimes is what the spans say about one span name.
type layerTimes struct {
	calls int
	selfS float64   // span time minus the interval its children cover
	durUS []float64 // per-span self time, microseconds
}

// analyze computes self times: for each span, its duration minus the union
// of its children's intervals clipped to its own.
func (t *tracer) analyze() [numSpanNames]layerTimes {
	n := int32(t.n.Load())
	childrenOf := make(map[int32][]int32)
	for i := int32(0); i < n; i++ {
		if p := t.at(i).parent; p != noSpan {
			childrenOf[p] = append(childrenOf[p], i)
		}
	}
	var out [numSpanNames]layerTimes
	for i := int32(0); i < n; i++ {
		s := t.at(i)
		self := s.end - s.start
		if kids := childrenOf[i]; len(kids) > 0 {
			sort.Slice(kids, func(a, b int) bool { return t.at(kids[a]).start < t.at(kids[b]).start })
			covered, edge := int64(0), s.start
			for _, k := range kids {
				ks, ke := max(t.at(k).start, edge), min(t.at(k).end, s.end)
				if ke > ks {
					covered += ke - ks
					edge = ke
				}
			}
			self -= covered
		}
		l := &out[s.name]
		l.calls++
		l.selfS += float64(self) / 1e9
		l.durUS = append(l.durUS, float64(self)/1e3)
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for i, n := int32(0), int32(t.n.Load()); i < n; i++ {
		s := t.at(i)
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.name]...)
		b = append(b, `","start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"req":`...)
		b = strconv.AppendInt(b, int64(s.req), 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
