package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Event is one trace span, serialized as a single JSONL line. The
// engine emits one event per round phase (pop, fetch, apply_schedule,
// apply_content, push), all carrying the round's ID, so sorting a
// trace by ts and grouping by round reconstructs how the pipeline
// overlapped rounds offline.
type Event struct {
	// TS is the span's start, in milliseconds since the trace epoch
	// (process start).
	TS float64 `json:"ts"`
	// Dur is the span's duration in milliseconds.
	Dur float64 `json:"dur"`
	// Name is the span name (pop, fetch, apply_schedule, ...).
	Name string `json:"name"`
	// Round is the engine round the span belongs to, when it has one.
	Round uint64 `json:"round,omitempty"`
	// N counts the units the span covered (jobs in a round, entries in
	// a push, rounds in a content apply), when meaningful.
	N int `json:"n,omitempty"`
}

// Trace is a bounded in-memory ring of Events with an optional JSONL
// writer. Emitting is cheap (one mutex, no allocation beyond the ring
// slot); the ring keeps the most recent events for the /debug/trace
// tail even when no file sink is attached.
type Trace struct {
	epoch time.Time

	mu    sync.Mutex
	ring  []Event
	next  int // ring index of the next write
	total int // events ever emitted
	w     *json.Encoder
}

// NewTrace builds a trace keeping the last size events.
func NewTrace(size int) *Trace {
	if size < 1 {
		size = 1
	}
	return &Trace{epoch: time.Now(), ring: make([]Event, size)}
}

// DefaultTrace is the process-wide trace sink, mirroring Default.
var DefaultTrace = NewTrace(4096)

// SetWriter attaches a JSONL sink: every subsequent event is appended
// to w as one JSON line. Pass nil to detach. The caller owns w's
// lifetime (typically a file closed on shutdown).
func (t *Trace) SetWriter(w interface{ Write([]byte) (int, error) }) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w == nil {
		t.w = nil
		return
	}
	t.w = json.NewEncoder(w)
}

// Span records a span that started at start and just ended.
func (t *Trace) Span(name string, round uint64, n int, start time.Time) {
	t.Emit(Event{
		TS:    float64(start.Sub(t.epoch).Microseconds()) / 1e3,
		Dur:   float64(time.Since(start).Microseconds()) / 1e3,
		Name:  name,
		Round: round,
		N:     n,
	})
}

// Emit appends one event to the ring and the writer, if attached.
func (t *Trace) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	if t.w != nil {
		_ = t.w.Encode(e)
	}
}

// Tail returns the most recent n events, oldest first. n <= 0 returns
// everything the ring holds.
func (t *Trace) Tail(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	held := t.total
	if held > len(t.ring) {
		held = len(t.ring)
	}
	if n <= 0 || n > held {
		n = held
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = t.ring[(t.next-n+i+len(t.ring))%len(t.ring)]
	}
	return out
}

// Total returns the number of events ever emitted.
func (t *Trace) Total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Handler serves the trace tail as JSONL (application/x-ndjson):
// GET /debug/trace[?n=200] returns the last n events (default: the
// whole ring), one JSON object per line, oldest first.
func (t *Trace) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, e := range t.Tail(n) {
			_ = enc.Encode(e)
		}
	})
}
