package core

import (
	"math"
	"testing"
	"time"

	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/scheduler"
)

// TestCrawlerConcurrentWorkersRace exists for the race detector: a
// multi-worker crawl with a latency fetcher keeps several CrawlModules
// genuinely in flight at once.
func TestCrawlerConcurrentWorkersRace(t *testing.T) {
	w, f := testWeb(t, 23)
	cfg := baseConfig(w)
	cfg.Workers = 8
	cfg.Frontier = frontier.NewSharded(8)
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
		func(c *Config) { c.DispatchBatch = -1 },
	} {
		cfg := baseConfig(w)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad engine config %d accepted", i)
		}
	}
}

// TestRateSolvedOnlyWhenPolicyReadsIt: the workers solve the working
// rate only for the one policy that reads it. Under ProportionalFreq
// every reschedule is Clamp(1/rate), the rate being the page's own
// estimate right after its own observation. Under FixedFreq and
// VariableFreq no rate is solved, and every fetch still records its
// observation in the page's history. After a pipelined warm-up the
// test fetches one job at a time, so it reads the state each job saw.
func TestRateSolvedOnlyWhenPolicyReadsIt(t *testing.T) {
	for _, freq := range []FreqPolicy{ProportionalFreq, FixedFreq, VariableFreq} {
		t.Run(freq.String(), func(t *testing.T) {
			w, f := testWeb(t, 44)
			cfg := baseConfig(w)
			cfg.Freq = freq
			c, err := New(cfg, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunUntil(6); err != nil {
				t.Fatal(err)
			}
			cfg = c.cfg // with defaults
			day := c.Day()
			solved := 0
			for i := 0; i < 300; i++ {
				e, ok := c.rounds.PopDue(math.Inf(1))
				if !ok {
					t.Fatal("frontier drained")
				}
				r := &roundState{jobs: []crawlJob{{e: e, day: day}}}
				j := &r.jobs[0]
				if err := c.resolveJob(j); err != nil {
					t.Fatal(err)
				}
				if err := c.fetchJob(j); err != nil {
					t.Fatal(err)
				}
				if j.res.NotFound {
					if err := c.applySchedule(r); err != nil {
						t.Fatal(err)
					}
					continue
				}
				hist := &j.page.est.hist
				if last, ok := hist.Last(); !ok || last != day {
					t.Fatalf("%s fetched at %v: history ends at %v (%v)", j.e.URL, day, last, ok)
				}
				rate := j.page.est.rate()
				if err := c.applySchedule(r); err != nil {
					t.Fatal(err)
				}
				day += 1 / cfg.PagesPerDay
				if freq != ProportionalFreq {
					if j.rate != 0 {
						t.Fatalf("%s: rate %v solved under %v", j.e.URL, j.rate, freq)
					}
					continue
				}
				want := cfg.MaxIntervalDays
				if rate > 0 {
					want = scheduler.Clamp(1/rate, cfg.MinIntervalDays, cfg.MaxIntervalDays)
					solved++
				}
				if due := c.pushes[0].Due; due != j.day+want {
					t.Fatalf("%s: rescheduled %v days ahead, want Clamp(1/%v) = %v", j.e.URL, due-j.day, rate, want)
				}
			}
			if freq == ProportionalFreq && solved == 0 {
				t.Fatal("no reschedule read a solved rate")
			}
		})
	}
}
