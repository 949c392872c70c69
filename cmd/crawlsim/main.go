// Command crawlsim runs full crawlers against the synthetic evolving web
// and measures their freshness and collection quality with the oracle
// evaluator: the end-to-end comparison behind Figure 10 — the incremental
// crawler (steady, in-place, variable frequency) against the periodic
// crawler (batch, shadowing, fixed frequency) at equal average bandwidth —
// plus the design matrix if requested: steady or batch, in-place or
// shadow, fixed or variable frequency, with batch at fixed frequency only
// (a batch crawl recrawls the whole collection every cycle).
//
// Usage:
//
//	crawlsim [-seed N] [-days N] [-size N] [-matrix]
//	crawlsim -shard-servers 127.0.0.1:7070,127.0.0.1:7071   # frontier on shardd daemons
//	crawlsim -registry 127.0.0.1:7060                       # discover the cluster from registryd
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/daemon"
	"webevolve/internal/fetch"
	"webevolve/internal/obs"
	"webevolve/internal/profiles"
	"webevolve/internal/report"
	"webevolve/internal/simweb"
	"webevolve/internal/store"
)

func main() {
	seed := flag.Int64("seed", 2000, "simulation seed")
	days := flag.Float64("days", 120, "virtual days to run")
	size := flag.Int("size", 2000, "collection size (pages)")
	matrix := flag.Bool("matrix", false, "run the steady/batch x in-place/shadow x fixed/variable matrix (batch at fixed frequency only)")
	curves := flag.Bool("curves", false, "plot measured freshness-over-time curves (engine-measured Figure 7/8 analog)")
	workers := flag.Int("workers", 4, "concurrent crawl workers (results are identical at any count)")
	shardServers := flag.String("shard-servers", "", "comma-separated shardd endpoints hosting the frontier (results are identical to local shards)")
	storeServer := flag.String("store-server", "", "storerd endpoint hosting the incremental crawlers' collections (results are identical to local stores; the periodic baseline stays local, like its frontier)")
	registryAddr := flag.String("registry", "", "registryd endpoint; shard and store servers are discovered from it and followed live (exclusive with the static lists)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "append JSONL trace events (engine round/phase spans) to this file")
	metricsListen := flag.String("metrics-listen", "", "host:port for the debug listener serving /metrics, /debug/pprof and /debug/trace (empty disables)")
	metricsAddrFile := flag.String("metrics-addr-file", "", "write the debug listener's bound address to this file (with -metrics-listen :0)")
	flag.Parse()
	topo, err := daemon.ParseTopology(*registryAddr, *shardServers, *storeServer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlsim:", err)
		os.Exit(2)
	}
	// The membership epoch gauge and migration counters live in this
	// process (the crawl client drives migrations), so the cluster smoke
	// scrapes crawlsim's /metrics mid-crawl to watch a join land.
	stopDebug, err := daemon.ServeDebug("crawlsim", *metricsListen, *metricsAddrFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlsim:", err)
		os.Exit(1)
	}
	defer stopDebug()
	stopProfiles, err := profiles.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlsim:", err)
		os.Exit(1)
	}
	if *traceFile != "" {
		// The engine emits one span per phase per dispatch round into
		// the process trace; writing them out makes the pipeline's
		// overlap (round N applying while N+1 fetches) inspectable
		// offline by grouping on the round IDs.
		tf, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crawlsim:", err)
			os.Exit(1)
		}
		defer tf.Close()
		obs.DefaultTrace.SetWriter(tf)
	}
	eng := engine{workers: *workers, topo: topo}
	if *curves {
		err = runCurves(*seed, *days, *size, &eng)
	} else {
		err = run(*seed, *days, *size, *matrix, &eng)
	}
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlsim:", err)
		os.Exit(1)
	}
}

// engine carries the crawl-engine concurrency knobs into every
// contender's config — and, with a cluster topology, the remote
// frontier and repository every incremental contender mounts in turn.
type engine struct {
	workers int
	topo    cluster.Topology

	// The contender currently holding the cluster (nil planes are local).
	rshards *cluster.RemoteShards
	rstore  *cluster.RemoteStore
	sh      *store.Shadowed
}

// config applies the worker count to a contender's config.
func (e *engine) config(cfg core.Config) core.Config {
	cfg.Workers = e.workers
	return cfg
}

// crawler builds an incremental contender over the topology's cluster;
// a plane the topology has no members for stays in memory. Contenders
// run sequentially over one cluster, so each starts from a wiped
// frontier and repository.
func (e *engine) crawler(cfg core.Config, f fetch.Fetcher) (*core.Crawler, error) {
	cfg = e.config(cfg)
	var err error
	e.rshards, e.rstore, err = e.topo.Dial(cluster.Options{})
	if err != nil {
		return nil, err
	}
	if e.rshards != nil {
		if err := e.rshards.Reset(); err != nil {
			return nil, err
		}
		cfg.Frontier = e.rshards
	}
	sh := store.NewShadowedMem()
	if e.rstore != nil {
		if err := e.rstore.Reset(); err != nil {
			return nil, err
		}
		if sh, err = e.rstore.Shadowed(); err != nil {
			return nil, err
		}
		e.sh = sh
	}
	return core.NewWithStore(cfg, f, sh)
}

// finish releases the cluster after a contender's run — dropping its
// remaining server-side generations — and surfaces any transport error
// a plane swallowed.
func (e *engine) finish() error {
	var errs []error
	if e.sh != nil {
		errs = append(errs, e.sh.Close())
	}
	if e.rstore != nil {
		if err := e.rstore.Err(); err != nil {
			errs = append(errs, fmt.Errorf("store server: %w", err))
		}
		e.rstore.Close()
	}
	if e.rshards != nil {
		if err := e.rshards.Err(); err != nil {
			errs = append(errs, fmt.Errorf("shard cluster: %w", err))
		}
		e.rshards.Close()
	}
	e.rshards, e.rstore, e.sh = nil, nil, nil
	return errors.Join(errs...)
}

// runCurves measures freshness over time from the live engine for the
// four Section 4 design points — the engine-measured counterpart of the
// analytic Figures 7 and 8.
func runCurves(seed int64, days float64, size int, eng *engine) error {
	cycle := 10.0
	fmt.Printf("== Measured freshness evolution (%d pages, %.0f-day cycle) ==\n\n", size, cycle)
	var series []report.Series
	for _, d := range []struct {
		name string
		mode core.Mode
		upd  core.UpdateStyle
	}{
		{"steady/in-place", core.Steady, core.InPlace},
		{"batch/in-place", core.Batch, core.InPlace},
		{"steady/shadow", core.Steady, core.Shadow},
		{"batch/shadow", core.Batch, core.Shadow},
	} {
		w, err := newWeb(seed)
		if err != nil {
			return err
		}
		c, err := eng.crawler(core.Config{
			Seeds:          w.RootURLs(),
			CollectionSize: size,
			PagesPerDay:    float64(size) / cycle,
			CycleDays:      cycle,
			BatchDays:      cycle / 4,
			Mode:           d.mode,
			Update:         d.upd,
		}, fetch.NewSimFetcher(w))
		if err != nil {
			return err
		}
		ev := &core.Evaluator{Web: w}
		_, samples, err := ev.TimeAveragedFreshness(c, days, 2*cycle, 96, size)
		if err != nil {
			return err
		}
		if err := eng.finish(); err != nil {
			return err
		}
		sr := report.Series{Name: d.name}
		for _, s := range samples {
			sr.X = append(sr.X, s.Day)
			sr.Y = append(sr.Y, s.Value)
		}
		series = append(series, sr)
	}
	fmt.Println(report.Lines(series, 76, 20))
	fmt.Println("compare with cmd/freshsim's analytic Figures 7 and 8: batch curves")
	fmt.Println("oscillate within each cycle, steady curves hold level, and shadowing")
	fmt.Println("drags the steady crawler's level down.")
	return nil
}

func newWeb(seed int64) (*simweb.Web, error) {
	return simweb.New(simweb.Config{
		Seed: seed,
		SitesPerDomain: map[simweb.Domain]int{
			simweb.Com: 10, simweb.Edu: 6, simweb.NetOrg: 2, simweb.Gov: 2,
		},
		PagesPerSite: 150,
	})
}

type contender struct {
	name string
	run  func(w *simweb.Web) (core.Runner, error)
}

func run(seed int64, days float64, size int, matrix bool, eng *engine) error {
	// Bandwidth: revisit the whole collection every ~10 days on average.
	cycle := 10.0
	bandwidth := float64(size) / cycle

	baseCfg := func(w *simweb.Web) core.Config {
		return core.Config{
			Seeds:          w.RootURLs(),
			CollectionSize: size,
			PagesPerDay:    bandwidth,
			CycleDays:      cycle,
			BatchDays:      cycle / 4,
			RankEveryDays:  cycle,
			Estimator:      core.EstimatorEP,
		}
	}

	contenders := []contender{
		{"incremental (steady, in-place, variable)", func(w *simweb.Web) (core.Runner, error) {
			cfg := baseCfg(w)
			cfg.Mode, cfg.Update, cfg.Freq = core.Steady, core.InPlace, core.VariableFreq
			return eng.crawler(cfg, fetch.NewSimFetcher(w))
		}},
		{"periodic (batch, shadowing, fixed, from scratch)", func(w *simweb.Web) (core.Runner, error) {
			// The periodic baseline has no frontier, so never mount the
			// remote cluster for it (config, not crawler).
			return core.NewPeriodic(eng.config(baseCfg(w)), fetch.NewSimFetcher(w))
		}},
	}
	if matrix {
		for _, mode := range []core.Mode{core.Steady, core.Batch} {
			for _, upd := range []core.UpdateStyle{core.InPlace, core.Shadow} {
				for _, fr := range []core.FreqPolicy{core.FixedFreq, core.VariableFreq} {
					if mode == core.Batch && fr != core.FixedFreq {
						continue // core.Config.Validate refuses it
					}
					mode, upd, fr := mode, upd, fr
					contenders = append(contenders, contender{matrixName(mode, upd, fr), func(w *simweb.Web) (core.Runner, error) {
						cfg := baseCfg(w)
						cfg.Mode, cfg.Update, cfg.Freq = mode, upd, fr
						return eng.crawler(cfg, fetch.NewSimFetcher(w))
					}})
				}
			}
		}
	}

	fmt.Printf("== Crawler comparison: %d-page collection, %.0f pages/day, %.0f virtual days ==\n\n",
		size, bandwidth, days)
	rows := make([][]string, 0, len(contenders))
	avgs := make(map[string]float64, len(contenders))
	for _, c := range contenders {
		w, err := newWeb(seed) // fresh identical web per contender
		if err != nil {
			return err
		}
		r, err := c.run(w)
		if err != nil {
			return err
		}
		ev := &core.Evaluator{Web: w}
		warm := 2 * cycle
		avg, _, err := ev.TimeAveragedFreshness(r, days, warm, 24, size)
		if err != nil {
			return err
		}
		q, err := ev.Quality(r.Collection(), r.Day())
		if err != nil {
			return err
		}
		if err := eng.finish(); err != nil {
			return err
		}
		avgs[c.name] = avg
		rows = append(rows, []string{c.name, fmt.Sprintf("%.3f", avg), fmt.Sprintf("%.3f", q)})
	}
	fmt.Println(report.Table([]string{"crawler", "avg freshness", "quality"}, rows))
	fmt.Println("paper's expectation: the incremental crawler dominates the periodic one on")
	fmt.Println("freshness at equal average bandwidth; shadowing costs a steady crawler")
	fmt.Println("more than a batch one; variable frequency beats fixed.")
	if matrix {
		fmt.Println(freqVerdict(avgs[matrixName(core.Steady, core.InPlace, core.FixedFreq)],
			avgs[matrixName(core.Steady, core.InPlace, core.VariableFreq)]))
	}
	return nil
}

// matrixName names one cell of the design matrix.
func matrixName(mode core.Mode, upd core.UpdateStyle, fr core.FreqPolicy) string {
	return fmt.Sprintf("%s, %s, %s", mode, upd, fr)
}

// freqVerdict states which revisit policy the steady, in-place rows just
// measured put ahead, comparing the averages as the table prints them.
func freqVerdict(fixed, variable float64) string {
	verdict := "a tie"
	switch f, v := math.Round(fixed*1000), math.Round(variable*1000); {
	case v > f:
		verdict = "variable frequency beats fixed"
	case f > v:
		verdict = "fixed frequency beats variable"
	}
	return fmt.Sprintf("measured (steady, in-place): variable %.3f, fixed %.3f: %s.", variable, fixed, verdict)
}
