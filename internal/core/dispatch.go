package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webevolve/internal/obs"
	"webevolve/internal/webgraph"
)

// This file is the one worker-pool dispatcher behind every concurrent
// crawl path in the repo — the simulated engine and cmd/webcrawl's live
// crawl — parameterized over the per-URL work function. It has one
// mode, the round: a set of job groups — all jobs of one site, in pop
// order — submitted together and completed as a unit (groupBySite
// builds them). Groups carry a site key, and the pool runs groups of
// one site strictly in submission order (a per-site line), so two
// rounds can be in flight at once without ever reordering or
// overlapping one site's fetches. Groups are dispatched largest-first
// (LPT scheduling), so a skewed round with one hot site starts its long
// group immediately instead of letting it straggle behind short ones.
//
// The engine keeps one pool per run and pipelines rounds on it: while
// round N's results are applied, rounds N+1 and N+2 are already
// fetching on the same workers (engine.go). DispatchRound is the same
// dispatch for a caller that runs one round at a time and applies the
// results itself (cmd/webcrawl).

// dispatchGroup is one unit of pool scheduling: one site's jobs of a
// round, which run sequentially in order on a single worker.
type dispatchGroup struct {
	jobs []*crawlJob
	// site serializes this group behind any earlier unfinished group
	// with the same key.
	site string
	// round counts this group against its round's completion (set by
	// startRound; avoids a closure per group).
	round *roundHandle
}

// roundHandle tracks one submitted round's completion.
type roundHandle struct {
	left atomic.Int64
	done chan struct{}
}

// dispatchPool is a fixed set of worker goroutines draining groups of
// per-URL work. The first work-function error stops the pool: later
// jobs are skipped (their groups still complete, so round waits
// return), and the error surfaces from wait/close.
type dispatchPool struct {
	fn func(j *crawlJob) error

	mu    sync.Mutex
	cond  *sync.Cond
	ready []dispatchGroup // runnable now; FIFO from readyHead, compacted when drained
	// readyHead indexes the next runnable group; consuming by index
	// instead of reslicing lets the backing array be reused instead of
	// reallocated every few submissions.
	readyHead int
	lines     map[string][]dispatchGroup // per-site groups waiting behind a running one
	closed    bool

	wg       sync.WaitGroup
	stopFlag atomic.Bool
	errMu    sync.Mutex
	firstErr error
}

// newDispatchPool starts workers goroutines running fn.
func newDispatchPool(workers int, fn func(j *crawlJob) error) *dispatchPool {
	if workers < 1 {
		workers = 1
	}
	p := &dispatchPool{
		fn:    fn,
		lines: make(map[string][]dispatchGroup),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// submit queues one group. A group is held back while an earlier group
// of the same site is queued or running, preserving per-site job order
// across rounds. Never blocks.
func (p *dispatchPool) submit(g dispatchGroup) {
	p.mu.Lock()
	if line, busy := p.lines[g.site]; busy {
		p.lines[g.site] = append(line, g)
		p.mu.Unlock()
		return
	}
	p.lines[g.site] = nil // mark the site busy with this group
	p.push(g)
	p.mu.Unlock()
	p.cond.Signal()
}

// push appends to the ready queue, reusing the backing array once the
// consumed prefix is the whole slice. Caller holds p.mu.
func (p *dispatchPool) push(g dispatchGroup) {
	if p.readyHead > 0 && p.readyHead == len(p.ready) {
		p.ready = p.ready[:0]
		p.readyHead = 0
	}
	p.ready = append(p.ready, g)
}

// next blocks for a runnable group; ok is false when the pool closed.
func (p *dispatchPool) next() (dispatchGroup, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.readyHead == len(p.ready) && !p.closed {
		p.cond.Wait()
	}
	if p.readyHead == len(p.ready) {
		return dispatchGroup{}, false
	}
	g := p.ready[p.readyHead]
	p.ready[p.readyHead] = dispatchGroup{} // release references
	p.readyHead++
	return g, true
}

// groupFinished releases the group's site line, promoting the next
// queued group of that site, then counts the group against its round.
func (p *dispatchPool) groupFinished(g dispatchGroup) {
	p.mu.Lock()
	line := p.lines[g.site]
	if len(line) > 0 {
		nxt := line[0]
		p.lines[g.site] = line[1:]
		p.push(nxt)
		p.mu.Unlock()
		p.cond.Signal()
		dispatchLinePromotions.Inc()
	} else {
		delete(p.lines, g.site)
		p.mu.Unlock()
	}
	if g.round.left.Add(-1) == 0 {
		close(g.round.done)
	}
}

func (p *dispatchPool) worker() {
	defer p.wg.Done()
	for {
		g, ok := p.next()
		if !ok {
			break
		}
		dispatchBusyWorkers.Add(1)
		dispatchGroups.Inc()
		for _, j := range g.jobs {
			// A failed pool stops paying fetch latency immediately; the
			// group still completes so its round's wait returns.
			if p.stopFlag.Load() {
				break
			}
			err := p.fn(j)
			dispatchJobs.Inc()
			if err != nil {
				p.fail(err)
				break
			}
		}
		p.groupFinished(g)
		dispatchBusyWorkers.Add(-1)
	}
}

// fail records the first error and stops the pool.
func (p *dispatchPool) fail(err error) {
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
	p.stopFlag.Store(true)
}

// err returns the first recorded error, if any.
func (p *dispatchPool) err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

// startRound submits one dispatch round and returns its completion
// handle. Groups run in submission order subject to worker availability
// and site lines; callers submit largest groups first.
func (p *dispatchPool) startRound(groups []dispatchGroup) *roundHandle {
	h := &roundHandle{done: make(chan struct{})}
	if len(groups) == 0 {
		close(h.done)
		return h
	}
	h.left.Store(int64(len(groups)))
	for i := range groups {
		g := groups[i]
		g.round = h
		p.submit(g)
	}
	return h
}

// wait blocks until the round completes, then reports the pool's first
// error, if any.
func (p *dispatchPool) wait(h *roundHandle) error {
	<-h.done
	return p.err()
}

// abort stops the pool and drains the given in-flight rounds,
// discarding their results. Used on apply errors: the pipeline must
// not leak speculatively dispatched work.
func (p *dispatchPool) abort(inflight []*roundHandle) {
	p.stopFlag.Store(true)
	for _, h := range inflight {
		<-h.done
	}
}

// close shuts the pool down: no more submissions, workers drain and
// exit. Returns the pool's first error.
func (p *dispatchPool) close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	return p.err()
}

// groupBySite appends the round's jobs to groups, one group per site —
// stable-sorting ptrs by site, so a group keeps its jobs in pop order —
// with the largest group first: the round finishes when its last group
// does, so long groups must start early. Ties break by first-job pop
// position to keep dispatch deterministic.
func groupBySite(ptrs []*crawlJob, groups []dispatchGroup) []dispatchGroup {
	if len(ptrs) == 1 {
		return append(groups, dispatchGroup{jobs: ptrs, site: ptrs[0].site})
	}
	sort.SliceStable(ptrs, func(i, j int) bool { return ptrs[i].site < ptrs[j].site })
	first := len(groups)
	start := 0
	for i := 1; i <= len(ptrs); i++ {
		if i < len(ptrs) && ptrs[i].site == ptrs[start].site {
			continue
		}
		groups = append(groups, dispatchGroup{jobs: ptrs[start:i], site: ptrs[start].site})
		start = i
	}
	round := groups[first:]
	sort.SliceStable(round, func(i, j int) bool {
		if len(round[i].jobs) != len(round[j].jobs) {
			return len(round[i].jobs) > len(round[j].jobs)
		}
		return round[i].jobs[0].idx < round[j].jobs[0].idx
	})
	return groups
}

// DispatchRound runs work(i) for every urls[i] on a pool of up to
// workers goroutines and returns when the round is done, with the
// first error work returned. It is the engine's dispatch: the URLs are
// grouped by site (webgraph.SiteOf), a site's URLs run one after
// another on one worker in slice order, and groups start
// largest-first. So no two of one site's jobs ever overlap, and a
// caller that runs one round at a time never has two requests to one
// site in flight. After an error, jobs not yet started are skipped.
func DispatchRound(workers int, urls []string, work func(i int) error) error {
	if len(urls) == 0 {
		return nil
	}
	jobs := make([]crawlJob, len(urls))
	ptrs := make([]*crawlJob, len(urls))
	for i, u := range urls {
		jobs[i] = crawlJob{idx: i, url: u, site: webgraph.SiteOf(u)}
		ptrs[i] = &jobs[i]
	}
	groups := groupBySite(ptrs, nil)
	p := newDispatchPool(min(workers, len(groups)), func(j *crawlJob) error {
		// Live crawls are slow enough (network-bound) that a per-fetch
		// trace span is cheap; the simulated engine sticks to per-round
		// spans (engine.go).
		start := time.Now()
		err := work(j.idx)
		obs.DefaultTrace.Span("fetch_url", 0, 1, start)
		return err
	})
	<-p.startRound(groups).done
	return p.close()
}
