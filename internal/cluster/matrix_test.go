package cluster_test

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/registry"
	"webevolve/internal/store"
)

// TestInvarianceMatrix checks the system's central claim: where CollUrls
// and the Collection live never changes a crawl by one bit — not the
// worker count, the frontier's tier or topology, the store, a
// membership change or a restart mid-crawl. A cell is one point on five
// axes (workers, frontier, store, style, event); every valid cell must
// equal its style's oracle, the sequential crawl (one worker, one
// shard, one-URL rounds) on in-process memory shards and a memory
// collection pair. Each cell compares the metrics, the crawl's URL
// table (AllUrls: every URL by ID, so IDs are part of the crawl's
// outcome), every collection record with its body, and the final
// revisit plan.
//
// Subtests are named by their coordinates; a named cell also carries
// its label, so `go test -run 'TestInvarianceMatrix/KillRestart'`
// reruns the cells that replaced the kill-restart suite.
func TestInvarianceMatrix(t *testing.T) {
	oracles := map[stylePoint]outcome{}
	for _, s := range styleAxis {
		oracles[s] = runCell(t, cell{workerPoint{1, 1, 1}, frontierAxis[0], "mem", s, "none"})
	}
	all, named, run := cells(), 0, 0
	for _, c := range all {
		name := c.String()
		if label, ok := namedCells[name]; ok {
			name = label + "," + name
			named++
		} else if !sampled(name) {
			continue
		}
		run++
		t.Run(name, func(t *testing.T) {
			if d := diff(runCell(t, c), oracles[c.style]); d != "" {
				t.Fatal(d)
			}
		})
	}
	t.Logf("ran %d of %d valid cells: %d named, the rest sampled at %d %% (seed %d)",
		run, len(all), named, samplePercent, sampleSeed)
	if named != len(namedCells) {
		t.Fatalf("%d of %d named cells are not in the matrix", len(namedCells)-named, len(namedCells))
	}
}

// The full cross product costs more than its share of a plain go test
// beside the rest of the tree on a two-core box (≈ 20 ms a cell, mostly
// server setup), so a run crawls the named cells
// and a fixed sample of the others. The seed is a constant, so every run
// reports the same subtests and a failing cell reruns by name; change
// it to rotate the sample, or set samplePercent to 100 for the full
// sweep.
const (
	sampleSeed    = 1
	samplePercent = 60
)

// sampled reports whether an unnamed cell is in the sample: the cells
// whose name, hashed under the seed, falls in the lowest samplePercent
// of the hash space.
func sampled(name string) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", sampleSeed, name)
	return h.Sum64()%100 < samplePercent
}

// The axes. Local frontiers take their shard count from the workers
// point; remote ones fix their own layout.
var (
	workerAxis = []workerPoint{{1, 16, 8}, {4, 8, 16}, {8, 32, 64}}

	frontierAxis = []frontierPoint{
		{via: "local"},
		{via: "local", budget: 16},
		{via: "pipe", servers: 1, shards: 16},
		{via: "pipe", servers: 2, shards: 8},
		{via: "pipe", servers: 4, shards: 4},
		{via: "pipe", servers: 2, shards: 8, budget: 48},
		{via: "wal", servers: 1, shards: 8},
		{via: "wal", servers: 1, shards: 8, budget: 24},
		{via: "registry", shards: 8},
		{via: "registry", shards: 8, budget: 32},
	}

	storeAxis = []string{"mem", "disk", "remote-mem", "remote-disk"}

	// styleAxis is crawlsim -matrix's design space: the benchmark's
	// crawl, the fixed-frequency crawl, shadowing, and the periodic
	// crawler.
	styleAxis = []stylePoint{
		{core.Steady, core.InPlace, core.VariableFreq},
		{core.Steady, core.InPlace, core.FixedFreq},
		{core.Steady, core.Shadow, core.VariableFreq},
		{core.Batch, core.Shadow, core.FixedFreq},
	}

	eventAxis = []string{"none", "kill", "store-restart", "join", "leave"}
)

// namedCells labels the cells every run crawls: those that took over a
// hand-built invariance suite's configuration (the suites ran the
// fixed-frequency style; the store suite's shadow case is the shadow
// style here), and rows no suite covered.
var namedCells = map[string]string{
	"w1s16b8,local-mem,mem,steady-in-place-fixed,none":          "WorkerCountInvariance",
	"w4s8b16,local-mem,mem,steady-in-place-fixed,none":          "WorkerCountInvariance",
	"w8s32b64,local-mem,mem,steady-in-place-fixed,none":         "WorkerCountInvariance",
	"w4s8b16,local-disk16,mem,steady-in-place-fixed,none":       "WorkerCountInvarianceDiskTier",
	"w1s16b8,local-mem,mem,batch-shadow-fixed,none":             "WorkerCountInvarianceBatchMode",
	"w8s32b64,local-mem,mem,batch-shadow-fixed,none":            "WorkerCountInvarianceBatchMode",
	"w1s16b8,pipe-mem-1x16,mem,steady-in-place-fixed,none":      "DistributedWorkerCountInvariance",
	"w4s8b16,pipe-mem-2x8,mem,steady-in-place-fixed,none":       "DistributedWorkerCountInvariance",
	"w8s32b64,pipe-mem-4x4,mem,steady-in-place-fixed,none":      "DistributedWorkerCountInvariance",
	"w4s8b16,pipe-disk48-2x8,mem,steady-in-place-fixed,none":    "DistributedWorkerCountInvariance",
	"w4s8b16,pipe-mem-2x8,mem,batch-shadow-fixed,none":          "DistributedBatchModeInvariance",
	"w4s8b16,wal-mem-1x8,mem,steady-in-place-fixed,kill":        "KillRestartInvariance",
	"w4s8b16,wal-disk24-1x8,mem,steady-in-place-fixed,kill":     "KillRestartInvariance",
	"w4s8b16,registry-mem-8,mem,steady-in-place-fixed,join":     "JoinMidCrawlInvariance",
	"w4s8b16,registry-mem-8,mem,steady-in-place-fixed,leave":    "LeaveMidCrawlInvariance",
	"w4s8b16,registry-disk32-8,mem,steady-in-place-fixed,join":  "JoinMidCrawlInvarianceDiskTier",
	"w4s8b16,registry-disk32-8,mem,steady-in-place-fixed,leave": "LeaveMidCrawlInvarianceDiskTier",
	"w4s8b16,local-mem,remote-mem,steady-in-place-fixed,none":   "RemoteStoreCrawlInvariance",
	"w4s8b16,local-mem,remote-disk,steady-in-place-fixed,none":  "RemoteStoreCrawlInvariance",
	"w4s8b16,local-mem,remote-mem,steady-shadow-variable,none":  "RemoteStoreCrawlInvariance",
	"w4s8b16,local-mem,remote-disk,steady-shadow-variable,none": "RemoteStoreCrawlInvariance",

	"w4s8b16,wal-disk24-1x8,remote-disk,steady-in-place-variable,kill":     "KillRestartDiskTierRemoteStore",
	"w4s8b16,registry-mem-8,mem,batch-shadow-fixed,join":                   "BatchModeJoin",
	"w4s8b16,registry-mem-8,mem,batch-shadow-fixed,leave":                  "BatchModeLeave",
	"w4s8b16,local-mem,remote-disk,steady-in-place-variable,store-restart": "StoreRestart",
	"w4s8b16,local-mem,remote-mem,steady-in-place-variable,none":           "RemoteStoreBodies",
	"w4s8b16,local-mem,remote-disk,steady-in-place-variable,none":          "RemoteStoreBodies",
}

const (
	matrixSeed = 21
	// eventAt is the fetch whose worker fires the cell's event.
	eventAt = 150
)

// horizon is the virtual day each mode's crawl runs to: fetch eventAt
// falls 52–75 % of the way through a steady crawl (variable, fixed
// frequency) and 72 % through a batch crawl, in its third cycle.
var horizon = map[core.Mode]float64{core.Steady: 8, core.Batch: 9}

type workerPoint struct{ workers, shards, batch int }

func (w workerPoint) String() string { return fmt.Sprintf("w%ds%db%d", w.workers, w.shards, w.batch) }

// frontierPoint is where CollUrls lives: in process ("local"), on shard
// servers over net.Pipe ("pipe"), on one WAL-backed server over TCP
// ("wal", the only frontier a kill applies to), or on registry members
// over net.Pipe ("registry", the only one a join or leave applies to).
// A non-zero budget puts every frontier on the disk tier under that
// resident budget.
type frontierPoint struct {
	via             string
	servers, shards int
	budget          int
}

func (f frontierPoint) String() string {
	tier := "mem"
	if f.budget > 0 {
		tier = fmt.Sprint("disk", f.budget)
	}
	switch f.via {
	case "local":
		return "local-" + tier
	case "registry":
		return fmt.Sprintf("registry-%s-%d", tier, f.shards)
	}
	return fmt.Sprintf("%s-%s-%dx%d", f.via, tier, f.servers, f.shards)
}

type stylePoint struct {
	mode   core.Mode
	update core.UpdateStyle
	freq   core.FreqPolicy
}

func (s stylePoint) String() string { return fmt.Sprintf("%v-%v-%v", s.mode, s.update, s.freq) }

type cell struct {
	workers  workerPoint
	frontier frontierPoint
	store    string
	style    stylePoint
	event    string
}

func (c cell) String() string {
	return fmt.Sprintf("%v,%v,%s,%v,%s", c.workers, c.frontier, c.store, c.style, c.event)
}

// valid states which events a cell's frontier and store admit. A
// store restart needs a durable store server: a memory-backed one is
// refused after a restart by design (TestStoreReconnectRestartSemantics).
func (c cell) valid() bool {
	switch c.event {
	case "kill":
		return c.frontier.via == "wal"
	case "store-restart":
		return c.store == "remote-disk"
	case "join", "leave":
		return c.frontier.via == "registry"
	}
	return true
}

// cells is the cross product of the axes, keeping the valid cells.
func cells() []cell {
	var out []cell
	for _, s := range styleAxis {
		for _, w := range workerAxis {
			for _, f := range frontierAxis {
				for _, st := range storeAxis {
					for _, ev := range eventAxis {
						if c := (cell{w, f, st, s, ev}); c.valid() {
							out = append(out, c)
						}
					}
				}
			}
		}
	}
	return out
}

// outcome is everything a crawl leaves behind that the matrix compares.
type outcome struct {
	metrics core.Metrics
	urls    []string           // the URL table, by ID
	records []store.PageRecord // the collection, in URL order
	plan    []planned          // the frontier's final queue, in pop order
}

type planned struct {
	URL           string
	Due, Priority float64
}

// diff names the first divergence of got from want, or returns "".
func diff(got, want outcome) string {
	if got.metrics != want.metrics {
		return fmt.Sprintf("metrics diverge\n got: %+v\nwant: %+v", got.metrics, want.metrics)
	}
	return cmp.Or(
		firstDiff("URL table", got.urls, want.urls, func(u string) string { return u }),
		firstDiff("collection", got.records, want.records, func(r store.PageRecord) string {
			return fmt.Sprintf("%s sum=%x at=%v v=%d imp=%v links=%d body=%dB",
				r.URL, r.Checksum, r.FetchedAt, r.Version, r.Importance, len(r.Links), len(r.Content))
		}),
		firstDiff("revisit plan", got.plan, want.plan, func(p planned) string { return fmt.Sprintf("%+v", p) }),
	)
}

func firstDiff[T any](what string, got, want []T, show func(T) string) string {
	for i := range min(len(got), len(want)) {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("%s diverges at entry %d\n got: %s\nwant: %s", what, i, show(got[i]), show(want[i]))
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%s holds %d entries, want %d (the shorter is a prefix of the longer)", what, len(got), len(want))
	}
	return ""
}

// cellRun is one cell's crawl under construction: what its builders
// opened, and what the checks after the crawl need.
type cellRun struct {
	t    *testing.T
	cell cell
	dir  string // the cell's scratch directory
	// hook is the cell's event, fired from a crawl worker goroutine.
	hook func() error
	// tiers are the disk-tier frontiers opened, which must have spilled.
	tiers []*frontier.Sharded
	// remotes are the wire clients, whose sticky errors must stay nil.
	remotes []interface{ Err() error }
	// registry, for a registry frontier, must end the crawl with
	// members active and no migration pending.
	registry *registry.Client
	members  []string
}

// fastRetry keeps a restarted server's outage short for the client.
var fastRetry = cluster.WithTransport(cluster.Options{}, 2*time.Millisecond, 0)

// runCell crawls one cell and returns its outcome, failing t on any
// check besides the comparison with the oracle.
func runCell(t *testing.T, c cell) outcome {
	t.Helper()
	r := &cellRun{t: t, cell: c, dir: t.TempDir()}
	w, f := testWeb(t, matrixSeed)
	f.WithContent = true // bodies ride the store's value codec
	cfg := baseConfig(w)
	cfg.StoreContent = true
	cfg.Mode, cfg.Update, cfg.Freq = c.style.mode, c.style.update, c.style.freq
	cfg.Workers, cfg.DispatchBatch = c.workers.workers, c.workers.batch
	cfg.Frontier = r.frontier()
	sh := r.store()

	ev := &eventFetcher{Fetcher: f, at: eventAt, hook: r.hook, err: make(chan error, 1)}
	cr, err := core.NewWithStore(cfg, ev, sh)
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.RunUntil(horizon[c.style.mode]); err != nil {
		t.Fatal(err)
	}

	var out outcome
	out.metrics = cr.Metrics()
	all := cr.AllUrls()
	for id := range int32(all.Len()) {
		out.urls = append(out.urls, all.URL(id))
	}
	if err := cr.Collection().Scan(func(rec store.PageRecord) bool {
		out.records = append(out.records, rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// One round that pops nothing and peeks the whole queue reads the
	// revisit plan through the same path the engine drains it by.
	q := cr.CollUrls().(interface {
		ApplyRound(pops, removes []string, pushes []frontier.Entry, peekMax int) ([]frontier.Entry, frontier.Entry, bool, bool)
	})
	cands, _, _, ok := q.ApplyRound(nil, nil, nil, cr.CollUrls().Len())
	if !ok {
		t.Fatal("final round refused")
	}
	for _, e := range cands {
		out.plan = append(out.plan, planned{e.URL, e.Due, e.Priority})
	}

	if r.hook != nil {
		select {
		case err := <-ev.err:
			if err != nil {
				t.Fatalf("%s: %v", c.event, err)
			}
		default:
			t.Fatalf("%s never fired: %d fetches, want at least %d", c.event, ev.n.Load(), eventAt)
		}
	}
	for _, rc := range r.remotes {
		if err := rc.Err(); err != nil {
			t.Fatalf("wire client: %v", err)
		}
	}
	var spilled int64
	for _, fr := range r.tiers {
		spilled += fr.Tier().SpillBytes
	}
	if c.frontier.budget > 0 && spilled == 0 {
		t.Fatal("disk tier never spilled: the cell exercised no spill log")
	}
	if r.registry != nil {
		ms, err := r.registry.Membership()
		if err != nil {
			t.Fatal(err)
		}
		var active []string
		for _, m := range ms.Shard() {
			active = append(active, m.Addr)
		}
		slices.Sort(active)
		if ms.Migrating || !slices.Equal(active, r.members) {
			t.Fatalf("membership after the crawl: active %v migrating=%v, want %v settled", active, ms.Migrating, r.members)
		}
	}
	return out
}

// openShards opens n frontier shards on the memory tier, or on the disk
// tier under a fresh spill directory when budget > 0. Restarts and
// joins call it from crawl workers, so it returns its error.
func (r *cellRun) openShards(n, budget int) (*frontier.Sharded, error) {
	if budget == 0 {
		return frontier.NewSharded(n), nil
	}
	dir := filepath.Join(r.dir, fmt.Sprint("frontier", len(r.tiers)))
	fr, err := frontier.OpenSharded(frontier.StoreConfig{Shards: n, SpillDir: dir, ResidentBudget: budget})
	if err != nil {
		return nil, err
	}
	r.t.Cleanup(func() { fr.Close() })
	r.tiers = append(r.tiers, fr)
	return fr, nil
}

// shardServer is a shard server over openShards.
func (r *cellRun) shardServer(n, budget int) (*cluster.ShardServer, error) {
	fr, err := r.openShards(n, budget)
	if err != nil {
		return nil, err
	}
	srv := cluster.NewShardServer(fr)
	r.t.Cleanup(func() { srv.Close() })
	return srv, nil
}

// frontier builds the cell's CollUrls.
func (r *cellRun) frontier() frontier.ShardSet {
	t, f := r.t, r.cell.frontier
	var rs *cluster.RemoteShards
	var err error
	switch f.via {
	case "local":
		fr, err := r.openShards(r.cell.workers.shards, f.budget)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	case "pipe":
		servers := make([]*cluster.ShardServer, f.servers)
		for i := range servers {
			if servers[i], err = r.shardServer(f.shards, f.budget); err != nil {
				t.Fatal(err)
			}
		}
		rs, err = cluster.Loopback(servers, cluster.Options{})
	case "wal":
		// Every incarnation gets a fresh spill directory: the WAL is the
		// durability plane and rebuilds the spill logs on replay, so a
		// replacement never depends on the killed process's logs.
		// scripts/cluster_smoke.sh repeats the kill across real shardd
		// processes with a literal SIGKILL.
		walDir := t.TempDir()
		start := func(addr string) (*cluster.ShardServer, error) {
			srv, err := r.shardServer(f.shards, f.budget)
			if err != nil {
				return nil, err
			}
			if err := srv.OpenWAL(walDir); err != nil {
				return nil, err
			}
			if err := srv.Listen(addr); err != nil {
				return nil, err
			}
			go srv.Serve() //nolint:errcheck — exits with ErrServerClosed on Close
			return srv, nil
		}
		var srv *cluster.ShardServer
		if srv, err = start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr().String()
		if r.cell.event == "kill" {
			r.hook = func() error {
				srv.Close() // hard stop: no CloseWAL, no final snapshot
				_, err := start(addr)
				return err
			}
		}
		rs, err = cluster.DialTCP([]string{addr}, fastRetry)
	case "registry":
		// The full membership stack minus TCP: members are in-process
		// servers over net.Pipe, the registry a real HTTP server
		// (default TTL: nothing expires mid-crawl).
		ts := httptest.NewServer(registry.NewServer(0).Handler())
		t.Cleanup(ts.Close)
		r.registry = registry.NewClient(ts.URL)
		var mu sync.Mutex // a join adds a member while the engine dials
		servers := map[string]*cluster.ShardServer{}
		// add registers a member; against a non-empty active set the
		// join parks as pending, and the crawl client completes it.
		add := func(addr string) error {
			srv, err := r.shardServer(f.shards, f.budget)
			if err != nil {
				return err
			}
			mu.Lock()
			servers[addr] = srv
			mu.Unlock()
			_, _, err = r.registry.Register(registry.Member{Kind: registry.KindShard, Addr: addr, Shards: f.shards})
			return err
		}
		r.members = []string{"shard-1:7070"}
		if err := add("shard-1:7070"); err != nil {
			t.Fatal(err)
		}
		switch r.cell.event {
		case "join":
			r.hook = func() error { return add("shard-2:7070") }
			r.members = []string{"shard-1:7070", "shard-2:7070"}
		case "leave":
			// The second member parks as a pending join, adopted at dial.
			if err := add("shard-2:7070"); err != nil {
				t.Fatal(err)
			}
			r.hook = func() error { _, err := r.registry.Leave("shard-1:7070"); return err }
			r.members = []string{"shard-2:7070"}
		}
		// A negative poll interval reads the registry at every round
		// boundary, so a change is picked up at the first one after it.
		rs, err = cluster.DialMembership(r.registry, func(m registry.Member) cluster.Dialer {
			mu.Lock()
			defer mu.Unlock()
			return servers[m.Addr].Pipe
		}, cluster.WithTransport(cluster.Options{}, 0, -1))
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	r.remotes = append(r.remotes, rs)
	return rs
}

// store builds the cell's collection pair.
func (r *cellRun) store() *store.Shadowed {
	t := r.t
	switch r.cell.store {
	case "mem":
		return store.NewShadowedMem()
	case "disk":
		dir, gen := t.TempDir(), 0
		sh, err := store.NewShadowed(nil, func() (store.Collection, error) {
			gen++
			return store.OpenDisk(filepath.Join(dir, fmt.Sprint("gen", gen)))
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() })
		return sh
	}
	if r.cell.event != "store-restart" {
		dir := "" // remote-mem
		if r.cell.store == "remote-disk" {
			dir = t.TempDir()
		}
		rs := loopbackStore(t, dir)
		r.remotes = append(r.remotes, rs)
		return remoteShadowed(t, rs)
	}
	// A restart needs an address to come back on: serve over TCP.
	dir := t.TempDir()
	start := func(addr string) (*cluster.StoreServer, error) {
		srv := cluster.NewDiskStoreServer(dir)
		t.Cleanup(func() { srv.Close() })
		if err := srv.Listen(addr); err != nil {
			return nil, err
		}
		go srv.Serve() //nolint:errcheck — exits with ErrServerClosed on Close
		return srv, nil
	}
	srv, err := start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	r.hook = func() error {
		if err := srv.Close(); err != nil {
			return err
		}
		_, err := start(addr)
		return err
	}
	rs, err := cluster.DialStoreTCP(addr, fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	r.remotes = append(r.remotes, rs)
	return remoteShadowed(t, rs)
}

// eventFetcher fires its hook, if any, at the at-th fetch —
// deterministically mid-crawl, unlike a timer. The hook runs on a crawl
// worker goroutine, where t.Fatal is not allowed, so its error comes
// back on err.
type eventFetcher struct {
	fetch.Fetcher
	n    atomic.Int64
	at   int64
	hook func() error
	err  chan error // buffered: receives the hook's one result
}

func (e *eventFetcher) Fetch(url string, day float64) (fetch.Result, error) {
	if e.n.Add(1) == e.at && e.hook != nil {
		e.err <- e.hook()
	}
	return e.Fetcher.Fetch(url, day)
}
