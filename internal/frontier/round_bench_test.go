package frontier

import "testing"

// BenchmarkFrontierApplyRound is the perf ledger's "frontier pop/push"
// row: one engine round commit per op — 16 pops, their 16 reschedules
// and the 24-candidate peek — against a 32-shard queue holding 10,000
// entries over 270 sites (crawl_mem's shape), on each tier. The disk
// tier runs under the benchmark's 2,000-entry resident budget and
// reports the resident peak, which the budget should bound.
func BenchmarkFrontierApplyRound(b *testing.B) {
	b.Run("mem", func(b *testing.B) { benchApplyRound(b, StoreConfig{Shards: 32}) })
	b.Run("disk", func(b *testing.B) {
		benchApplyRound(b, StoreConfig{Shards: 32, SpillDir: b.TempDir(), ResidentBudget: 2000})
	})
}

func benchApplyRound(b *testing.B, cfg StoreConfig) {
	const (
		entries = 10_000
		popsPer = 16
		peek    = 24
	)
	q, err := OpenSharded(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	seed := make([]Entry, entries)
	for i := range seed {
		// Dues spread over ten days with the crawl's coarse priorities.
		seed[i] = Entry{URL: urlOn(i%270, i), Due: float64(i*7919%entries) / 1000, Priority: float64(i % 3)}
	}
	cands, _, _, ok := q.ApplyRound(nil, nil, seed, peek)
	if !ok {
		b.Fatal("round refused")
	}
	pops := make([]string, 0, popsPer)
	pushes := make([]Entry, 0, popsPer)
	peak := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pops, pushes = pops[:0], pushes[:0]
		for _, e := range cands[:popsPer] {
			pops = append(pops, e.URL)
			// A page revisited every ten days: back to the queue's tail.
			pushes = append(pushes, Entry{URL: e.URL, Due: e.Due + 10, Priority: e.Priority})
		}
		cands, _, _, _ = q.ApplyRound(pops, nil, pushes, peek)
		if cfg.SpillDir != "" && i%64 == 0 {
			peak = max(peak, q.Tier().Resident)
		}
	}
	b.StopTimer()
	if cfg.SpillDir != "" {
		b.ReportMetric(float64(peak), "resident_peak")
	}
}
