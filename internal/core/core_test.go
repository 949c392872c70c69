package core

import (
	"strings"
	"testing"

	"webevolve/internal/fetch"
	"webevolve/internal/simweb"
	"webevolve/internal/store"
)

// testWeb builds a small deterministic web and fetcher.
func testWeb(t *testing.T, seed int64) (*simweb.Web, *fetch.SimFetcher) {
	t.Helper()
	w, err := simweb.New(simweb.Config{
		Seed: seed,
		SitesPerDomain: map[simweb.Domain]int{
			simweb.Com: 3, simweb.Edu: 2, simweb.NetOrg: 1, simweb.Gov: 1,
		},
		PagesPerSite: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, fetch.NewSimFetcher(w)
}

func baseConfig(w *simweb.Web) Config {
	return Config{
		Seeds:          w.RootURLs(),
		CollectionSize: 120,
		PagesPerDay:    60,
		CycleDays:      4,
		BatchDays:      1,
		RankEveryDays:  2,
		Estimator:      EstimatorEP,
	}
}

func TestConfigValidation(t *testing.T) {
	w, _ := testWeb(t, 1)
	good := baseConfig(w)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Seeds = nil },
		func(c *Config) { c.CollectionSize = -1 },
		func(c *Config) { c.PagesPerDay = -5 },
		func(c *Config) { c.CycleDays = -1 },
		func(c *Config) { c.Mode = Batch; c.BatchDays = 100 },
		func(c *Config) { c.Mode = Batch; c.Freq = VariableFreq },
		func(c *Config) { c.Mode = Batch; c.Freq = ProportionalFreq },
		func(c *Config) { c.MinIntervalDays = 10; c.MaxIntervalDays = 1 },
	}
	for i, mutate := range bad {
		c := baseConfig(w)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	batchVariable := baseConfig(w)
	batchVariable.Mode, batchVariable.Freq = Batch, VariableFreq
	if err := batchVariable.Validate(); err == nil || !strings.Contains(err.Error(), "never consults the revisit policy") {
		t.Errorf("batch at variable frequency: %v, want the refusal's reason", err)
	}
}

func TestEnumStrings(t *testing.T) {
	cases := map[string]string{
		Steady.String():           "steady",
		Batch.String():            "batch",
		InPlace.String():          "in-place",
		Shadow.String():           "shadow",
		FixedFreq.String():        "fixed",
		VariableFreq.String():     "variable",
		ProportionalFreq.String(): "proportional",
		EstimatorEP.String():      "EP",
		EstimatorEB.String():      "EB",
		EstimatorNaive.String():   "naive",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("enum string %q, want %q", got, want)
		}
	}
}

func TestNewRejectsNils(t *testing.T) {
	w, f := testWeb(t, 2)
	if _, err := New(baseConfig(w), nil); err == nil {
		t.Fatal("nil fetcher accepted")
	}
	if _, err := NewWithStore(baseConfig(w), f, nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestCrawlerDiscoversAndFills(t *testing.T) {
	w, f := testWeb(t, 3)
	c, err := New(baseConfig(w), f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if got := c.Collection().Len(); got != 120 {
		t.Fatalf("collection size %d, want 120", got)
	}
	if c.AllUrls().Len() <= 120 {
		t.Fatalf("AllUrls %d: discovery did not outrun the collection", c.AllUrls().Len())
	}
	m := c.Metrics()
	if m.Fetches == 0 || m.NewPages == 0 || m.RankPasses == 0 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestCrawlerDetectsChanges(t *testing.T) {
	w, f := testWeb(t, 4)
	cfg := baseConfig(w)
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().ChangesDetected == 0 {
		t.Fatal("no changes detected over 30 days on a changing web")
	}
}

func TestCollectionEntriesMatchWeb(t *testing.T) {
	w, f := testWeb(t, 5)
	c, err := New(baseConfig(w), f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(8); err != nil {
		t.Fatal(err)
	}
	day := c.Day()
	err = c.Collection().Scan(func(rec store.PageRecord) bool {
		if rec.FetchedAt > day {
			t.Fatalf("record %s fetched in the future", rec.URL)
		}
		// Stored checksum must equal the web's checksum at fetch time.
		snap, err := w.FetchMeta(rec.URL, rec.FetchedAt)
		if err == nil && snap.Checksum != rec.Checksum {
			t.Fatalf("record %s checksum mismatch at fetch time", rec.URL)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVanishedPagesDropped(t *testing.T) {
	w, f := testWeb(t, 6)
	cfg := baseConfig(w)
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().NotFound == 0 {
		t.Fatal("no 404s over 120 days despite page churn")
	}
	// No dead pages may linger in the collection beyond a revisit cycle.
	day := c.Day()
	stale := 0
	_ = c.Collection().Scan(func(rec store.PageRecord) bool {
		if _, err := w.FetchMeta(rec.URL, day); err != nil {
			if day-rec.FetchedAt > 2*cfg.MaxIntervalDays {
				stale++
			}
		}
		return true
	})
	if stale > 0 {
		t.Fatalf("%d long-dead pages still stored", stale)
	}
}

func TestSeedsNeverEvicted(t *testing.T) {
	w, f := testWeb(t, 7)
	cfg := baseConfig(w)
	cfg.CollectionSize = 10 // tiny: heavy eviction pressure
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	queued := make(map[string]bool)
	for _, u := range c.CollUrls().URLs() {
		queued[u] = true
	}
	for _, s := range cfg.Seeds {
		if !queued[s] {
			t.Fatalf("seed %s evicted", s)
		}
	}
}

func TestEvictionKeepsSizeBounded(t *testing.T) {
	w, f := testWeb(t, 8)
	cfg := baseConfig(w)
	cfg.CollectionSize = 50
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	for day := 4.0; day <= 40; day += 4 {
		if err := c.RunUntil(day); err != nil {
			t.Fatal(err)
		}
		if got := c.CollUrls().Len(); got > 50 {
			t.Fatalf("day %v: CollUrls %d exceeds target", day, got)
		}
		if got := c.Collection().Len(); got > 50 {
			t.Fatalf("day %v: collection %d exceeds target", day, got)
		}
	}
	if c.Metrics().Evictions == 0 {
		t.Fatal("no evictions despite pressure")
	}
}

func TestBatchModeIdlesBetweenCycles(t *testing.T) {
	w, f := testWeb(t, 9)
	cfg := baseConfig(w)
	cfg.Mode = Batch
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.IdleDays <= 0 {
		t.Fatal("batch crawler never idled")
	}
	if m.Fetches == 0 {
		t.Fatal("batch crawler never fetched")
	}
}

func TestShadowModeSwapsAndCarriesForward(t *testing.T) {
	w, f := testWeb(t, 10)
	cfg := baseConfig(w)
	cfg.Update = Shadow
	cfg.Freq = VariableFreq
	cfg.MaxIntervalDays = 100 // some pages will not be recrawled each cycle
	c, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(3.9); err != nil { // just before first swap
		t.Fatal(err)
	}
	preSwap := c.Collection().Len()
	if err := c.RunUntil(12.5); err != nil { // past swaps at 4 and 8
		t.Fatal(err)
	}
	if c.Metrics().Swaps == 0 {
		t.Fatal("no swaps in shadow mode")
	}
	if got := c.Collection().Len(); got < preSwap {
		t.Fatalf("swap lost pages: %d -> %d", preSwap, got)
	}
}

func TestEstimatorKindsRun(t *testing.T) {
	for _, kind := range []EstimatorKind{EstimatorEP, EstimatorEB, EstimatorNaive} {
		w, f := testWeb(t, 11)
		cfg := baseConfig(w)
		cfg.Estimator = kind
		cfg.Freq = VariableFreq
		c, err := New(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntil(12); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if c.Metrics().Fetches == 0 {
			t.Fatalf("%s: no fetches", kind)
		}
	}
}

func TestFrequencyPoliciesRun(t *testing.T) {
	for _, fr := range []FreqPolicy{FixedFreq, VariableFreq, ProportionalFreq} {
		w, f := testWeb(t, 12)
		cfg := baseConfig(w)
		cfg.Freq = fr
		c, err := New(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntil(10); err != nil {
			t.Fatalf("%s: %v", fr, err)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (Metrics, []string) {
		w, f := testWeb(t, 14)
		c, err := New(baseConfig(w), f)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntil(15); err != nil {
			t.Fatal(err)
		}
		return c.Metrics(), c.Collection().URLs()
	}
	m1, u1 := run()
	m2, u2 := run()
	if m1 != m2 {
		t.Fatalf("metrics diverge:\n%+v\n%+v", m1, m2)
	}
	if len(u1) != len(u2) {
		t.Fatalf("collection sizes diverge: %d vs %d", len(u1), len(u2))
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatalf("collections diverge at %d: %s vs %s", i, u1[i], u2[i])
		}
	}
}

func TestCrawlerWithDiskStore(t *testing.T) {
	w, f := testWeb(t, 15)
	dir := t.TempDir()
	gen := 0
	sh, err := store.NewShadowed(nil, func() (store.Collection, error) {
		gen++
		return store.OpenDisk(dir + "/gen" + string(rune('a'+gen)))
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(w)
	cfg.CollectionSize = 30
	c, err := NewWithStore(cfg, f, sh)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if c.Collection().Len() == 0 {
		t.Fatal("disk-backed collection empty")
	}
}
