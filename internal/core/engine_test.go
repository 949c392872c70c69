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

// TestShardPolitenessThrottlesCrawl checks the per-shard politeness gap
// reaches the engine: with a gap wider than the fetch spacing and all
// pages on few shards, the crawler must spend time idle waiting out
// politeness deadlines.
func TestShardPolitenessThrottlesCrawl(t *testing.T) {
	run := func(gap float64) Metrics {
		w, f := testWeb(t, 24)
		cfg := baseConfig(w)
		cfg.Shards = 2
		cfg.ShardPolitenessDays = gap
		c, err := New(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntil(8); err != nil {
			t.Fatal(err)
		}
		return c.Metrics()
	}
	free := run(0)
	polite := run(0.05) // 3x the per-fetch spacing of 1/60 day
	if polite.Fetches >= free.Fetches {
		t.Fatalf("politeness did not throttle: %d fetches vs %d unthrottled",
			polite.Fetches, free.Fetches)
	}
	if polite.IdleDays <= free.IdleDays {
		t.Fatalf("politeness did not add idle time: %v vs %v",
			polite.IdleDays, free.IdleDays)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	w, _ := testWeb(t, 25)
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Workers = -1 },
		func(c *Config) { c.Shards = -2 },
		func(c *Config) { c.DispatchBatch = -1 },
		func(c *Config) { c.ShardPolitenessDays = -0.5 },
	} {
		cfg := baseConfig(w)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad engine config %d accepted", i)
		}
	}
}
