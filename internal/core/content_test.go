package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
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

// write is one store write as a recordingColl saw it: a put, with a
// deep copy of the record, or a delete, with only the URL.
type write struct {
	del bool
	rec store.PageRecord
}

// recordingColl is a store.Collection over a Mem that logs every put
// and delete in one sequence, in arrival order. delay makes each
// PutBatch slow, so the content stage falls behind the engine; failAt >
// 0 makes the failAt-th PutBatch (and nothing else) fail; before, when
// set, runs at the start of every PutBatch.
type recordingColl struct {
	*store.Mem
	delay  time.Duration
	failAt int
	before func()

	mu         sync.Mutex
	batches    int     // PutBatch calls
	log        []write // every put and delete, in arrival order
	failedLog  int     // len(log) once the failing PutBatch was logged
	maxBacklog int64   // content backlog seen from inside PutBatch
	sealed     bool    // set by the test once RunUntil has returned
	late       int     // writes that arrived while sealed
}

var errStoreBoom = errors.New("store: injected failure")

func (c *recordingColl) PutBatch(recs []store.PageRecord) error {
	if c.before != nil {
		c.before()
	}
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	c.mu.Lock()
	if c.sealed {
		c.late++
	}
	c.batches++
	n := c.batches
	if b := engineContentBacklog.Value(); b > c.maxBacklog {
		c.maxBacklog = b
	}
	// Copy after the delay: a round buffer recycled while this batch
	// waited would show here as another round's records.
	for _, r := range recs {
		cp := r
		cp.Links = append([]string(nil), r.Links...)
		cp.Content = append([]byte(nil), r.Content...)
		c.log = append(c.log, write{rec: cp})
	}
	if n == c.failAt {
		c.failedLog = len(c.log)
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
	c.log = append(c.log, write{del: true, rec: store.PageRecord{URL: url}})
	c.mu.Unlock()
	return c.Mem.Delete(url)
}

// puts returns the logged puts' records, in order.
func (c *recordingColl) puts() []store.PageRecord {
	var out []store.PageRecord
	for _, w := range c.log {
		if !w.del {
			out = append(out, w.rec)
		}
	}
	return out
}

// records returns the collection's contents in URL order.
func (c *recordingColl) records(t *testing.T) []store.PageRecord {
	t.Helper()
	var out []store.PageRecord
	if err := c.Mem.Scan(func(r store.PageRecord) bool { out = append(out, r); return true }); err != nil {
		t.Fatal(err)
	}
	return out
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
// fetched for it. (Whether a buffer goes back to the free list while
// the stage still reads it, TestContentFoldKeepsPerURLOrder checks
// directly: with a buffer for every place a round can be, the engine
// rarely gets to reuse one early.)
func TestContentStageOrderAndIntegrity(t *testing.T) {
	w, sim := testWeb(t, 31)
	sim.WithContent = true
	f := &recordingFetcher{base: sim, got: map[string]fetch.Result{}}
	cfg := baseConfig(w)
	cfg.Workers = 4
	cfg.Frontier = frontier.NewSharded(8)
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
	puts := cur.puts()
	if want := int(m.Fetches - m.NotFound); len(puts) != want {
		t.Fatalf("store was handed %d records, crawl fetched %d pages", len(puts), want)
	}
	if cur.maxBacklog < 2 {
		t.Fatalf("content stage never fell behind (max backlog %d): the test exercised nothing", cur.maxBacklog)
	}
	seen := map[string]bool{}
	lastDay := -1.0
	for i, rec := range puts {
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
// engine runs ahead of the store: that RunUntil returns the error, the
// failing write is the store's last — no put or delete reaches it
// afterwards, however many rounds were queued or folded into the
// failing write — and the pool and the stage are gone.
func TestContentErrorEndsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	w, f := testWeb(t, 32)
	cfg := baseConfig(w)
	cfg.Workers = 4
	cfg.Frontier = frontier.NewSharded(8)
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
	if cur.batches != failAt || cur.failedLog == 0 || len(cur.log) != cur.failedLog {
		t.Fatalf("%d store writes and %d logged puts and deletes; the failing write was number %d and ended at entry %d: a write followed it",
			cur.batches, len(cur.log), failAt, cur.failedLog)
	}
	// Every write covers at least one whole round, so failAt writes mean
	// at least failAt rounds were fetched.
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

// TestContentCoalescing: behind a slow store the content stage folds the
// rounds queued behind the one it takes into its store write, so the
// crawl makes fewer PutBatch calls than it runs rounds. The store must
// still see exactly what a fast store sees — the same puts and deletes
// in the same order, flattened across writes — and end with the same
// collection; the rounds-per-write histogram accounts for every round.
func TestContentCoalescing(t *testing.T) {
	type result struct {
		log           []write
		recs          []store.PageRecord
		batches       int
		rounds        int64
		writes, folds float64
	}
	run := func(delay time.Duration) result {
		w, f := testWeb(t, 35)
		cfg := baseConfig(w)
		cfg.Workers = 4
		cfg.Frontier = frontier.NewSharded(8)
		cfg.DispatchBatch = 8
		sh, colls := recordingShadowed(t, delay, 0)
		c, err := NewWithStore(cfg, f, sh)
		if err != nil {
			t.Fatal(err)
		}
		rounds := engineRounds.Value()
		writes, folds := engineContentRoundsPerWrite.Count(), engineContentRoundsPerWrite.Sum()
		if err := c.RunUntil(12); err != nil {
			t.Fatal(err)
		}
		cur := (*colls)[0]
		return result{
			log: cur.log, recs: cur.records(t), batches: cur.batches,
			rounds: engineRounds.Value() - rounds,
			writes: float64(engineContentRoundsPerWrite.Count() - writes),
			folds:  engineContentRoundsPerWrite.Sum() - folds,
		}
	}
	fast, slow := run(0), run(500*time.Microsecond)
	for _, r := range []result{fast, slow} {
		if r.folds != float64(r.rounds) {
			t.Fatalf("the rounds-per-write histogram counts %v rounds, the crawl ran %d", r.folds, r.rounds)
		}
		if float64(r.batches) > r.writes {
			t.Fatalf("%d PutBatch calls, the rounds-per-write histogram counts %v writes", r.batches, r.writes)
		}
	}
	if slow.batches >= int(slow.rounds) || slow.writes >= slow.folds {
		t.Fatalf("slow store: %d PutBatch calls and %v writes for %d rounds: nothing was folded",
			slow.batches, slow.writes, slow.rounds)
	}
	deletes := 0
	for _, w := range fast.log {
		if w.del {
			deletes++
		}
	}
	if deletes == 0 {
		t.Fatal("the crawl dropped no page: the deletes' order went untested")
	}
	if !reflect.DeepEqual(fast.log, slow.log) {
		t.Fatalf("slow store saw another write sequence (%d writes, fast %d)", len(slow.log), len(fast.log))
	}
	if !reflect.DeepEqual(fast.recs, slow.recs) {
		t.Fatalf("slow store ends with %d records, fast with %d, or their contents differ", len(slow.recs), len(fast.recs))
	}
}

// TestContentFoldKeepsPerURLOrder holds the stage inside one store write
// while two rounds queue behind it, so both are folded into the next
// apply. When the second folded round drops a page the first put, the
// apply writes the first round's puts before that Delete, as one round
// at a time would; when only the fold's first round drops pages, both
// rounds' puts share one write. The folded rounds' buffers must stay
// out of the free list until the write that reads them returns: inside
// every later write each free buffer is scribbled over, as an engine
// reusing it would. The write log and the final collection must equal
// those of the same rounds into a store that never holds the stage.
func TestContentFoldKeepsPerURLOrder(t *testing.T) {
	type job struct {
		url  string
		drop bool
	}
	const a = "http://a.com/"
	for _, tc := range []struct {
		name    string
		queued  [2][]job // the rounds queued behind the held write
		ops     []string // the store's puts and deletes
		writes  float64  // PutBatch calls, as the histogram counts them
		survive []string
	}{
		{
			name:    "drop-after-put",
			queued:  [2][]job{{{url: a + "x"}, {url: a + "y"}}, {{url: a + "x", drop: true}, {url: a + "z"}}},
			ops:     []string{"put w", "put x", "put y", "del x", "put z"},
			writes:  3,
			survive: []string{a + "w", a + "y", a + "z"},
		},
		{
			name:    "drop-in-first",
			queued:  [2][]job{{{url: a + "w", drop: true}, {url: a + "x"}}, {{url: a + "y"}}},
			ops:     []string{"put w", "del w", "put x", "put y"},
			writes:  2,
			survive: []string{a + "x", a + "y"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(hold bool) (log []write, urls []string, batches int, writes, folds float64) {
				w, f := testWeb(t, 36)
				sh, colls := recordingShadowed(t, 0, 0)
				c, err := NewWithStore(baseConfig(w), f, sh)
				if err != nil {
					t.Fatal(err)
				}
				cur := (*colls)[0]
				writes0, folds0 := engineContentRoundsPerWrite.Count(), engineContentRoundsPerWrite.Sum()
				st := c.startContent()
				entered, release := make(chan struct{}), make(chan struct{})
				if hold {
					calls := 0 // the content goroutine's
					cur.before = func() {
						if calls++; calls == 1 {
							close(entered)
							<-release
						} else {
							scribbleFree(st)
						}
					}
				}
				submit := func(jobs ...job) {
					r := <-st.free
					r.reset()
					r.id = roundSeq.Add(1)
					for i, j := range jobs {
						r.jobs = append(r.jobs, crawlJob{idx: i, e: frontier.Entry{URL: j.url}, day: 1, page: &pageState{},
							res: fetch.Result{Checksum: uint64(i + 1), Links: []string{j.url + "next"}, Content: []byte(j.url)}})
					}
					for i, j := range jobs {
						r.live = append(r.live, outcome{job: &r.jobs[i], dropped: j.drop})
					}
					if err := st.submit(r); err != nil {
						t.Fatal(err)
					}
				}
				submit(job{url: a + "w"})
				if hold {
					<-entered
				}
				submit(tc.queued[0]...)
				submit(tc.queued[1]...)
				if hold {
					close(release)
				}
				if err := st.stop(); err != nil {
					t.Fatal(err)
				}
				return cur.log, cur.URLs(), cur.batches,
					float64(engineContentRoundsPerWrite.Count() - writes0), engineContentRoundsPerWrite.Sum() - folds0
			}
			fastLog, fastURLs, _, _, _ := run(false)
			slowLog, slowURLs, batches, writes, folds := run(true)
			if batches != int(tc.writes) || writes != tc.writes || folds != 3 {
				t.Fatalf("held store: %d PutBatch calls, histogram %v writes of %v rounds; want %v writes of 3 rounds",
					batches, writes, folds, tc.writes)
			}
			var ops []string
			for _, w := range slowLog {
				op := "put "
				if w.del {
					op = "del "
				}
				ops = append(ops, op+strings.TrimPrefix(w.rec.URL, a))
			}
			if !reflect.DeepEqual(ops, tc.ops) {
				t.Fatalf("held store saw %v, want %v", ops, tc.ops)
			}
			if !reflect.DeepEqual(slowURLs, tc.survive) {
				t.Fatalf("held store ends with %v, want %v", slowURLs, tc.survive)
			}
			if !reflect.DeepEqual(fastLog, slowLog) || !reflect.DeepEqual(fastURLs, slowURLs) {
				t.Fatalf("held store's writes %+v differ from %+v", slowLog, fastLog)
			}
		})
	}
}

// scribbleFree overwrites every job of every free round buffer, in place
// where a store record aliases it, as an engine reusing the buffer for
// the next round would.
func scribbleFree(st *contentStage) {
	for range len(st.free) {
		r := <-st.free
		for i := range r.jobs {
			j := &r.jobs[i]
			j.e.URL, j.res.Checksum = "http://scribbled/", 0
			for k := range j.res.Content {
				j.res.Content[k] = '#'
			}
		}
		st.free <- r
	}
}

// TestContentBarrier checks the barrier in the three engine shapes: a
// crawl into a slow store, advanced in several RunUntil steps, must be
// indistinguishable at every step from the same crawl into a fast one.
// The ranking pass reads the graph and the URL table, the swap reads the
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
				cfg.Frontier = frontier.NewSharded(8)
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
