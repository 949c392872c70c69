package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"webevolve/internal/fetch"
	"webevolve/internal/store"
)

// recordingFetcher keeps a private copy of every result it returns,
// keyed by (URL, day) — a (URL, day) is fetched at most once — so the
// store side can check the records it is handed against what was
// actually fetched, however late the content stage gets to them.
type recordingFetcher struct {
	base fetch.Fetcher
	mu   sync.Mutex
	got  map[string]fetch.Result
}

func fetchKey(url string, day float64) string { return fmt.Sprintf("%s@%v", url, day) }

func (f *recordingFetcher) Fetch(url string, day float64) (fetch.Result, error) {
	res, err := f.base.Fetch(url, day)
	if err != nil || res.NotFound {
		return res, err
	}
	cp := res
	cp.Links = append([]string(nil), res.Links...)
	cp.Content = append([]byte(nil), res.Content...)
	f.mu.Lock()
	f.got[fetchKey(url, day)] = cp
	f.mu.Unlock()
	return res, nil
}

// recordingColl is a store.Collection over a Mem that logs every write
// in arrival order. delay makes each PutBatch slow, so the content
// stage falls behind the engine; failAt > 0 makes the failAt-th
// PutBatch (and nothing else) fail.
type recordingColl struct {
	*store.Mem
	delay  time.Duration
	failAt int

	mu         sync.Mutex
	batches    int
	recs       []store.PageRecord // deep copies, in write order
	maxBacklog int64              // content backlog seen from inside PutBatch
	afterFail  int                // PutBatch calls after the failing one
	sealed     bool               // set by the test once RunUntil has returned
	late       int                // writes that arrived while sealed
}

var errStoreBoom = errors.New("store: injected failure")

func (c *recordingColl) PutBatch(recs []store.PageRecord) error {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	c.mu.Lock()
	if c.sealed {
		c.late++
	}
	c.batches++
	n := c.batches
	if c.failAt > 0 && n > c.failAt {
		c.afterFail++
	}
	if b := engineContentBacklog.Value(); b > c.maxBacklog {
		c.maxBacklog = b
	}
	// Copy after the delay: a round buffer recycled while this batch
	// waited would show here as another round's records.
	for _, r := range recs {
		cp := r
		cp.Links = append([]string(nil), r.Links...)
		cp.Content = append([]byte(nil), r.Content...)
		c.recs = append(c.recs, cp)
	}
	c.mu.Unlock()
	if n == c.failAt {
		return errStoreBoom
	}
	return c.Mem.PutBatch(recs)
}

func (c *recordingColl) Delete(url string) error {
	c.mu.Lock()
	if c.sealed {
		c.late++
	}
	c.mu.Unlock()
	return c.Mem.Delete(url)
}

// recordingShadowed builds a collection pair whose every generation is
// a recordingColl with the given behaviour, and returns them as made.
func recordingShadowed(t *testing.T, delay time.Duration, failAt int) (*store.Shadowed, *[]*recordingColl) {
	t.Helper()
	var colls []*recordingColl
	sh, err := store.NewShadowed(nil, func() (store.Collection, error) {
		c := &recordingColl{Mem: store.NewMem(), delay: delay, failAt: failAt}
		colls = append(colls, c)
		return c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh, &colls
}

// TestContentStageOrderAndIntegrity drives an in-place crawl into a
// store slow enough that the content stage runs several rounds behind
// the engine, and checks what the store was handed: every fetched page
// exactly once, in pop order, with the links and body that were
// fetched for it — which fails if a round buffer goes back to the free
// list while the stage still reads it.
func TestContentStageOrderAndIntegrity(t *testing.T) {
	w, sim := testWeb(t, 31)
	sim.WithContent = true
	f := &recordingFetcher{base: sim, got: map[string]fetch.Result{}}
	cfg := baseConfig(w)
	cfg.Workers = 4
	cfg.Shards = 8
	cfg.DispatchBatch = 8
	cfg.StoreContent = true
	sh, colls := recordingShadowed(t, 500*time.Microsecond, 0)
	c, err := NewWithStore(cfg, f, sh)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(12); err != nil {
		t.Fatal(err)
	}
	cur := (*colls)[0]
	m := c.Metrics()
	if want := int(m.Fetches - m.NotFound); len(cur.recs) != want {
		t.Fatalf("store was handed %d records, crawl fetched %d pages", len(cur.recs), want)
	}
	if cur.maxBacklog < 2 {
		t.Fatalf("content stage never fell behind (max backlog %d): the test exercised nothing", cur.maxBacklog)
	}
	seen := map[string]bool{}
	lastDay := -1.0
	for i, rec := range cur.recs {
		if rec.FetchedAt < lastDay {
			t.Fatalf("record %d (%s) fetched on day %v written after day %v: not pop order", i, rec.URL, rec.FetchedAt, lastDay)
		}
		lastDay = rec.FetchedAt
		k := fetchKey(rec.URL, rec.FetchedAt)
		if seen[k] {
			t.Fatalf("record %d: %s written twice", i, k)
		}
		seen[k] = true
		got, ok := f.got[k]
		if !ok {
			t.Fatalf("record %d: %s was never fetched", i, k)
		}
		if rec.Checksum != got.Checksum || rec.Version != got.Version ||
			!reflect.DeepEqual(rec.Links, got.Links) || !bytes.Equal(rec.Content, got.Content) {
			t.Fatalf("record %d (%s) differs from its fetch result", i, k)
		}
	}
}

// TestContentErrorEndsRun fails the k-th store write of a crawl whose
// engine runs ahead of the store: that RunUntil returns the error, no
// later round reaches the store, and the pool and the stage are gone.
func TestContentErrorEndsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	w, f := testWeb(t, 32)
	cfg := baseConfig(w)
	cfg.Workers = 4
	cfg.Shards = 8
	cfg.DispatchBatch = 8
	const failAt = 5
	sh, colls := recordingShadowed(t, 200*time.Microsecond, failAt)
	c, err := NewWithStore(cfg, f, sh)
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunUntil(12)
	if !errors.Is(err, errStoreBoom) {
		t.Fatalf("RunUntil = %v, want the injected store failure", err)
	}
	cur := (*colls)[0]
	if cur.batches != failAt || cur.afterFail != 0 {
		t.Fatalf("%d store writes (%d after the failing one), want exactly %d", cur.batches, cur.afterFail, failAt)
	}
	if c.Metrics().Fetches < int64(failAt*cfg.DispatchBatch) {
		t.Fatalf("only %d fetches before the failure", c.Metrics().Fetches)
	}
	// RunUntil waits for its goroutines; allow the runtime a moment to
	// retire them before counting.
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed run, %d before it", n, before)
	}
}

// TestContentBarrier checks the barrier in the three engine shapes: a
// crawl into a slow store, advanced in several RunUntil steps, must be
// indistinguishable at every step from the same crawl into a fast one.
// The ranking pass reads the graph and AllUrls, the swap reads the
// shadow collection, and the caller reads the collection right after
// RunUntil — a write still in the content stage at any of those points
// changes the comparison (and, under -race, is reported as a race).
// Closing the store right after the last RunUntil must find no write
// behind it.
func TestContentBarrier(t *testing.T) {
	type snap struct {
		m       Metrics
		urls    []string
		allURLs int
		pages   int
		links   int
	}
	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"steady-inplace", func(c *Config) {}},
		{"steady-shadow", func(c *Config) { c.Update = Shadow }},
		{"batch-shadow", func(c *Config) { c.Mode = Batch; c.Update = Shadow }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			run := func(delay time.Duration) []snap {
				w, f := testWeb(t, 33)
				cfg := baseConfig(w)
				cfg.Workers = 4
				cfg.Shards = 8
				cfg.DispatchBatch = 8
				mode.mutate(&cfg)
				sh, colls := recordingShadowed(t, delay, 0)
				c, err := NewWithStore(cfg, f, sh)
				if err != nil {
					t.Fatal(err)
				}
				var out []snap
				for _, until := range []float64{1.5, 4, 6.25, 9, 13} {
					if err := c.RunUntil(until); err != nil {
						t.Fatal(err)
					}
					out = append(out, snap{
						m:       c.Metrics(),
						urls:    c.Collection().URLs(),
						allURLs: c.AllUrls().Len(),
						pages:   c.Graph().NumPages(),
						links:   c.Graph().NumLinks(),
					})
				}
				for _, rc := range *colls {
					rc.mu.Lock()
					rc.sealed = true
					rc.mu.Unlock()
				}
				if err := sh.Close(); err != nil {
					t.Fatal(err)
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				for _, rc := range *colls {
					rc.mu.Lock()
					late := rc.late
					rc.mu.Unlock()
					if late != 0 {
						t.Fatalf("%d writes reached the store after RunUntil returned", late)
					}
				}
				return out
			}
			fast := run(0)
			slow := run(300 * time.Microsecond)
			for i := range fast {
				if !reflect.DeepEqual(fast[i], slow[i]) {
					t.Fatalf("step %d: slow store diverges\nfast %+v\nslow %+v", i, fast[i].m, slow[i].m)
				}
			}
			if last := fast[len(fast)-1]; len(last.urls) == 0 || last.m.RankPasses < 2 {
				t.Fatalf("crawl too small to mean anything: %+v", last.m)
			}
		})
	}
}
