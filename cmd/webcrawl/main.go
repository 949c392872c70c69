// Command webcrawl is a small production-style incremental crawler over
// real HTTP: seed URLs, polite fetching (robots.txt, per-host delay,
// optional night window), a disk-backed collection that survives
// restarts, checksum change detection, and EP-based revisit estimates.
//
// It is the live-web counterpart of the simulated experiments: the same
// frontier round protocol, worker-pool dispatch, store and estimator
// code paths, driven by wall-clock time.
//
// Usage:
//
//	webcrawl -seeds https://example.com/ -dir ./crawl -pages 50
//	webcrawl -seeds https://a.com/,https://b.org/ -delay 10s -night -workers 8
//
// The crawler runs one pass over all due URLs and exits; re-running
// continues incrementally from the stored state (compare timestamps and
// checksums across runs to watch change detection at work).
//
// A pass is a loop of rounds, like the simulated engine's: pop the URLs
// due now into a per-site backlog, take the backlog's first URL of each
// site (no more than the -pages budget left), fetch them on the worker
// pool, fold the results in pop order, and commit the round's pops,
// reschedules and discoveries to the frontier in one exchange, or in
// the next one when the frontier's candidates stay exact without them
// (frontier.Rounds). A round
// holds one URL per site, so it lasts about one -delay however the due
// URLs spread over sites, and its sites fetch side by side on up to
// -workers workers. The HTTP fetcher spaces requests to one host by -delay; so no
// host ever has two requests in flight, and consecutive requests to it
// start at least -delay apart. What a pass prints and stores does not
// depend on -workers.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"webevolve/internal/clock"
	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/crawlstate"
	"webevolve/internal/daemon"
	"webevolve/internal/fetch"
	"webevolve/internal/frontier"
	"webevolve/internal/htmlparse"
	"webevolve/internal/obs"
	"webevolve/internal/profiles"
	"webevolve/internal/robots"
	"webevolve/internal/store"
	"webevolve/internal/webgraph"
)

func main() {
	seeds := flag.String("seeds", "", "comma-separated absolute http(s) seed URLs (required)")
	dir := flag.String("dir", "crawl-data", "directory for the persistent collection")
	maxPages := flag.Int("pages", 25, "maximum pages to fetch this run")
	delay := flag.Duration("delay", 10*time.Second, "minimum delay between requests to one host")
	night := flag.Bool("night", false, "crawl only 9PM-6AM local time (the paper's window)")
	sameSite := flag.Bool("samesite", true, "follow links only within seed hosts")
	agent := flag.String("agent", "", "override User-Agent")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent fetch workers")
	shardServers := flag.String("shard-servers", "", "comma-separated shardd endpoints hosting the frontier (replaces in-process shards)")
	storeServer := flag.String("store-server", "", "storerd endpoint hosting the page collection (replaces the local disk store in -dir)")
	registryAddr := flag.String("registry", "", "registryd endpoint; shard and store servers are discovered from it at startup (exclusive with the static lists)")
	content := flag.Bool("content", true, "store page bodies in the collection (they feed the serving plane); disable to keep only metadata")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsListen := flag.String("metrics-listen", "", "host:port for the debug listener serving /metrics, /debug/pprof and /debug/trace (empty disables)")
	metricsAddrFile := flag.String("metrics-addr-file", "", "write the debug listener's bound address to this file (removed on exit)")
	traceFile := flag.String("trace", "", "append JSONL trace events (fetch spans) to this file")
	flag.Parse()

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webcrawl:", err)
		flag.Usage()
		os.Exit(2)
	}
	topo, err := daemon.ParseTopology(*registryAddr, *shardServers, *storeServer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webcrawl:", err)
		os.Exit(2)
	}
	stopProfiles, err := profiles.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webcrawl:", err)
		os.Exit(1)
	}
	stopDebug, err := daemon.ServeDebug("webcrawl", *metricsListen, *metricsAddrFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webcrawl:", err)
		os.Exit(1)
	}
	if *traceFile != "" {
		tf, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webcrawl:", err)
			os.Exit(1)
		}
		defer tf.Close()
		obs.DefaultTrace.SetWriter(tf)
	}
	o := crawlOpts{
		seeds:    seedList,
		dir:      *dir,
		maxPages: *maxPages,
		delay:    *delay,
		night:    *night,
		sameSite: *sameSite,
		agent:    *agent,
		workers:  *workers,
		topo:     topo,
		content:  *content,
		out:      os.Stdout,
	}
	err = run(o)
	stopProfiles()
	stopDebug()
	if err != nil {
		fmt.Fprintln(os.Stderr, "webcrawl:", err)
		os.Exit(1)
	}
}

// parseSeeds splits the -seeds list into normalized seed URLs. Empty
// entries (a trailing comma) are skipped; an entry that is not an
// absolute http(s) URL with a host is refused, and so is a list with no
// seed left.
func parseSeeds(list string) ([]string, error) {
	var seeds []string
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		u, err := url.Parse(s)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("seed %q is not an absolute http(s) URL", s)
		}
		seeds = append(seeds, htmlparse.Normalize(s))
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("-seeds names no URL")
	}
	return seeds, nil
}

type crawlOpts struct {
	seeds    []string // normalized (parseSeeds)
	dir      string
	maxPages int
	delay    time.Duration
	night    bool
	sameSite bool
	agent    string
	workers  int
	// topo, when set, mounts the frontier from shardd daemons instead of
	// in-process shards, and the page collection from storerd instead
	// of the local disk store in -dir — whichever planes it has members
	// for. One webcrawl process owns the cluster at a time: state.json
	// is still per-process, so sharing a cluster between concurrent
	// crawlers would split histories and overwrite schedules. The
	// collection is named "pages" on the server and persists there
	// across runs, like the -dir store does locally. A registry is read
	// at startup only, so webcrawl picks up a new membership on its next
	// run. Nothing is held across a round boundary, so a pass could
	// follow membership there as the simulated engine does; it does not.
	topo cluster.Topology
	// content stores fetched page bodies alongside the metadata, so the
	// serving plane (webservd, storerd -serve) can return them.
	content bool
	// out receives the per-page report and the summary line.
	out io.Writer
	// client, when set, is the HTTP client the fetcher uses.
	client *http.Client
}

// peekURLs is how many due entries one frontier exchange hands the
// pass at least (a shard-server cluster returns several times as
// many); a backlog fill pops through as many exchanges as it needs.
const peekURLs = 64

// localShards partitions the in-process frontier; round pop order does
// not depend on it.
const localShards = 16

func run(o crawlOpts) error {
	remote, storeRemote, err := o.topo.Dial(cluster.Options{})
	if err != nil {
		return err
	}
	if remote != nil {
		defer remote.Close()
	}
	var coll store.Collection
	if storeRemote != nil {
		defer storeRemote.Close()
		coll = storeRemote.Collection("pages")
	} else {
		disk, err := store.OpenDisk(filepath.Join(o.dir, "pages"))
		if err != nil {
			return err
		}
		defer disk.Close()
		coll = disk
	}
	st, err := crawlstate.Load(filepath.Join(o.dir, "state.json"))
	if err != nil {
		return err
	}

	pol := robots.Politeness{MinDelay: o.delay}
	if o.night {
		pol.NightOnly, pol.NightStart, pol.NightEnd = true, 21, 6
	}
	c := &crawl{
		opts:      o,
		coll:      coll,
		st:        st,
		f:         &fetch.HTTPFetcher{Client: o.client, Politeness: pol, Epoch: st.Epoch, UserAgent: o.agent},
		seedHosts: make(map[string]bool),
	}
	var q frontier.ShardSet = frontier.NewSharded(localShards)
	if remote != nil {
		q = remote
	}
	c.rounds = frontier.NewRounds(q, peekURLs)
	err = c.pass()
	fmt.Fprintf(o.out, "fetched %d pages; collection holds %d\n", c.fetched, coll.Len())
	if err != nil {
		return err
	}
	if remote != nil {
		if err := remote.Err(); err != nil {
			return fmt.Errorf("shard cluster: %w", err)
		}
	}
	if storeRemote != nil {
		if err := storeRemote.Err(); err != nil {
			return fmt.Errorf("store server: %w", err)
		}
	}
	return crawlstate.Save(filepath.Join(o.dir, "state.json"), st)
}

// crawl is one webcrawl pass. Everything but the fetches runs on the
// pass's goroutine.
type crawl struct {
	opts      crawlOpts
	coll      store.Collection
	st        *crawlstate.State
	rounds    *frontier.Rounds
	backlog   backlog
	f         *fetch.HTTPFetcher
	seedHosts map[string]bool
	fetched   int
}

func (c *crawl) nowDay() float64 { return clock.Days(time.Since(c.st.Epoch)) }

// pass rebuilds the revisit queue — stored pages at their due times,
// new seeds due now — as the first round, then crawls rounds until the
// fetch budget is spent or nothing is due. Backlog entries the budget
// left unfetched go back to the frontier unchanged.
func (c *crawl) pass() error {
	now := c.nowDay()
	queue := make([]frontier.Entry, 0, len(c.st.Due)+len(c.opts.seeds))
	for u, due := range c.st.Due {
		queue = append(queue, frontier.Entry{URL: u, Due: due})
	}
	for _, s := range c.opts.seeds {
		c.seedHosts[webgraph.SiteOf(s)] = true
		if _, ok := c.st.Due[s]; !ok {
			// The due table holds every queued URL, so link discovery
			// never mistakes a queued seed for a new page.
			c.st.Due[s] = now
			queue = append(queue, frontier.Entry{URL: s, Due: now, Priority: 1})
		}
	}
	if err := c.rounds.Commit(nil, queue, true); err != nil {
		return err
	}

	var urls []string
	for c.fetched < c.opts.maxPages {
		now := c.nowDay()
		c.backlog.fill(c.rounds, now)
		urls = c.backlog.take(c.opts.maxPages-c.fetched, urls[:0])
		if len(urls) == 0 {
			break
		}
		results, errs := make([]fetch.Result, len(urls)), make([]error, len(urls))
		// Per-URL fetch failures are reported and refunded, not fatal.
		if err := core.DispatchRound(c.opts.workers, urls, func(i int) error {
			results[i], errs[i] = c.f.Fetch(urls[i], 0)
			return nil
		}); err != nil {
			return err
		}
		pushes, err := c.apply(urls, results, errs, now)
		if err != nil {
			return err
		}
		if err := c.rounds.Commit(nil, pushes, true); err != nil {
			return err
		}
	}
	if err := c.rounds.Commit(nil, c.backlog.drain(), false); err != nil {
		return err
	}
	return c.rounds.Err() // a pop that found the frontier broken
}

// backlog holds the due entries a pass popped from the frontier and has
// not fetched yet: one queue per site, each in pop order. Every entry is
// popped once, however many rounds its site's queue takes to drain.
type backlog struct {
	sites map[string][]queued
	seq   int // pops so far
}

type queued struct {
	frontier.Entry
	site string
	seq  int // pop order
}

// fill pops every entry due at or before now.
func (b *backlog) fill(r *frontier.Rounds, now float64) {
	if b.sites == nil {
		b.sites = make(map[string][]queued)
	}
	for {
		e, ok := r.PopDue(now)
		if !ok {
			return
		}
		site := webgraph.SiteOf(e.URL)
		b.sites[site] = append(b.sites[site], queued{Entry: e, site: site, seq: b.seq})
		b.seq++
	}
}

// take removes the first entry of each site's queue, at most n of them
// in pop order, and appends their URLs to urls.
func (b *backlog) take(n int, urls []string) []string {
	heads := make([]queued, 0, len(b.sites))
	for _, q := range b.sites {
		heads = append(heads, q[0])
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i].seq < heads[j].seq })
	for _, h := range heads[:min(n, len(heads))] {
		if q := b.sites[h.site][1:]; len(q) > 0 {
			b.sites[h.site] = q
		} else {
			delete(b.sites, h.site)
		}
		urls = append(urls, h.URL)
	}
	return urls
}

// drain empties the backlog and returns its entries in pop order.
func (b *backlog) drain() []frontier.Entry {
	var all []queued
	for _, q := range b.sites {
		all = append(all, q...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	entries := make([]frontier.Entry, len(all))
	for i, q := range all {
		entries[i] = q.Entry
	}
	b.sites = nil
	return entries
}

// apply folds one fetched round into the collection, the change
// histories and the due table, in pop order, and returns the round's
// frontier pushes: each fetched page's reschedule by its EP estimate,
// and each newly discovered URL due at now, the round's pop instant. A
// store error ends the pass.
func (c *crawl) apply(urls []string, results []fetch.Result, errs []error, now float64) ([]frontier.Entry, error) {
	var recs []store.PageRecord
	var pushes []frontier.Entry
	for i, u := range urls {
		res := results[i]
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "  error %s: %v\n", u, errs[i])
			continue
		}
		c.fetched++
		if res.NotFound {
			fmt.Fprintf(c.opts.out, "  gone    %s\n", u)
			delete(c.st.Due, u)
			delete(c.st.Histories, u)
			if err := c.coll.Delete(u); err != nil {
				return nil, fmt.Errorf("deleting %s: %w", u, err)
			}
			continue
		}
		prev, had, err := c.coll.Get(u)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", u, err)
		}
		changed := had && prev.Checksum != res.Checksum
		c.st.Histories[u] = append(c.st.Histories[u], crawlstate.Obs{Day: res.Day, Changed: changed})
		// Reschedule by the EP estimate: unknown pages weekly, known
		// pages at half their estimated change interval, clamped.
		due := res.Day + crawlstate.ReviseInterval(c.st.Histories[u])
		c.st.Due[u] = due
		pushes = append(pushes, frontier.Entry{URL: u, Due: due})

		status := "new    "
		if had && changed {
			status = "changed"
		} else if had {
			status = "same   "
		}
		fmt.Fprintf(c.opts.out, "  %s %s (%d links)\n", status, u, len(res.Links))
		rec := store.PageRecord{URL: u, Checksum: res.Checksum, FetchedAt: res.Day, Links: res.Links}
		if c.opts.content {
			rec.Content = res.Content
		}
		recs = append(recs, rec)

		for _, l := range res.Links {
			l = htmlparse.Normalize(l)
			if c.opts.sameSite && !c.seedHosts[webgraph.SiteOf(l)] {
				continue
			}
			if _, ok := c.st.Due[l]; !ok {
				c.st.Due[l] = now
				pushes = append(pushes, frontier.Entry{URL: l, Due: now})
			}
		}
	}
	if len(recs) > 0 {
		if err := c.coll.PutBatch(recs); err != nil {
			return nil, fmt.Errorf("storing a round: %w", err)
		}
	}
	return pushes, nil
}
