package core

import (
	"testing"
	"time"

	"webevolve/internal/fetch"
)

// TestCrawlerConcurrentWorkersRace exists for the race detector: a
// multi-worker crawl with a latency fetcher keeps several CrawlModules
// genuinely in flight at once.
func TestCrawlerConcurrentWorkersRace(t *testing.T) {
	w, f := testWeb(t, 23)
	cfg := baseConfig(w)
	cfg.Workers = 8
	cfg.Shards = 8
	cfg.DispatchBatch = 32
	c, err := New(cfg, fetch.Delayed{Base: f, Delay: 20 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().Fetches == 0 {
		t.Fatal("no fetches")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	w, _ := testWeb(t, 25)
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Workers = -1 },
		func(c *Config) { c.Shards = -2 },
		func(c *Config) { c.DispatchBatch = -1 },
	} {
		cfg := baseConfig(w)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad engine config %d accepted", i)
		}
	}
}
