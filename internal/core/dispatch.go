package core

import (
	"sync"
	"sync/atomic"
	"time"

	"webevolve/internal/frontier"
	"webevolve/internal/obs"
)

// This file is the one worker-pool dispatcher behind every concurrent
// crawl path in the repo — the simulated engine and cmd/webcrawl's live
// crawl loop — parameterized over the per-URL work function. It runs in
// two modes:
//
//   - Round mode (startRound): the simulated engine's path. A dispatch
//     round is a set of job groups — all jobs of one site, in
//     virtual-day order — submitted together and completed as a unit.
//     Groups carry a site key, and the pool runs groups of one site
//     strictly in submission order (a per-site line), so two rounds
//     can be in flight at once without ever reordering or overlapping
//     one site's fetches. Groups are dispatched largest-first (LPT
//     scheduling), so a skewed round with one hot site starts its
//     long group immediately instead of letting it straggle behind
//     short ones. Rounds are what the engine pipelines: while round
//     N's results are applied, rounds N+1 and N+2 are already
//     fetching on the same workers (engine.go).
//
//   - Claim mode (DispatchClaims): cmd/webcrawl's wall-clock path. The
//     dispatcher claims due shards from a frontier.ShardSet and feeds
//     each claimed head to the pool as a single-job group whose
//     completion hook releases the shard — so no two workers ever fetch
//     from one site at once, and per-shard politeness deadlines are
//     honored by the frontier.

// dispatchGroup is one unit of pool scheduling: jobs that must run
// sequentially in order on a single worker (one site's fetches, or one
// claimed shard head).
type dispatchGroup struct {
	jobs []*crawlJob
	// site, when non-empty, serializes this group behind any earlier
	// unfinished group with the same key.
	site string
	// done, if non-nil, runs on the worker after the last job — even
	// when the pool is stopping — so claim releases never go missing.
	done func()
	// round, if non-nil, counts this group against a round's
	// completion (set by startRound; avoids a closure per group).
	round *roundHandle
}

// roundHandle tracks one submitted round's completion.
type roundHandle struct {
	left atomic.Int64
	done chan struct{}
}

// dispatchPool is a fixed set of worker goroutines draining groups of
// per-URL work. The first work-function error stops the pool: later
// jobs are skipped (their groups still complete, running their done
// hooks), and the error surfaces from wait/close.
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

// submit queues one group. Groups with a site key are held back while
// an earlier group of the same site is queued or running, preserving
// per-site job order across rounds. Never blocks.
func (p *dispatchPool) submit(g dispatchGroup) {
	p.mu.Lock()
	if g.site != "" {
		if line, busy := p.lines[g.site]; busy {
			p.lines[g.site] = append(line, g)
			p.mu.Unlock()
			return
		}
		p.lines[g.site] = nil // mark the site busy with this group
	}
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
// queued group of that site, then runs the group's completion hooks.
func (p *dispatchPool) groupFinished(g dispatchGroup) {
	if g.site != "" {
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
	}
	if g.done != nil {
		g.done()
	}
	if g.round != nil {
		if g.round.left.Add(-1) == 0 {
			close(g.round.done)
		}
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
			// group's done hook still runs so nothing deadlocks.
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

func (p *dispatchPool) stopped() bool { return p.stopFlag.Load() }

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

// ClaimDispatch configures DispatchClaims, the claim/fetch/release
// dispatcher for wall-clock crawlers (cmd/webcrawl).
type ClaimDispatch struct {
	Workers int
	Coll    frontier.ShardSet
	// Now is the claim timestamp in days (the wall clock for webcrawl).
	Now func() float64
	// Work receives each claimed head URL; a returned error stops the
	// whole dispatch.
	Work func(url string) error
	// Release returns a claimed shard to the frontier with the caller's
	// politeness deadline. It runs on the worker that processed the job,
	// after Work, before the job is counted done.
	Release func(shard int)
	// Gate is consulted before each claim with the counts of jobs
	// dispatched so far and in flight now, and reports whether the fetch
	// budget allows another claim: false pauses dispatch, and ends it
	// once nothing is in flight. A nil Gate always allows.
	Gate func(dispatched, inflight int64) bool
	// GateWait paces a closed gate (default 10ms).
	GateWait time.Duration
	// Idle is consulted when nothing is claimable and jobs may still be
	// in flight; scans counts consecutive idle calls. Returning false
	// ends the loop. The loop has already settled the inflight==0 case:
	// Idle(0, ...) means the frontier is truly drained of claimable work
	// at Now() — a politeness deadline or future due time may remain.
	Idle func(inflight int64, scans int) bool
}

// DispatchClaims runs the claim/dispatch/release loop over a private
// worker pool: claim the due head of a shard, hand it to the pool,
// release the shard when Work returns. A claimed shard is owned by one
// worker until released, so no two workers ever fetch from the same site
// concurrently. Returns the first work error, if any.
func DispatchClaims(cfg ClaimDispatch) error {
	p := newDispatchPool(cfg.Workers, func(j *crawlJob) error {
		// Wall-clock crawls are slow enough (network-bound) that a
		// per-fetch trace span is cheap; the simulated engine sticks to
		// per-round spans (engine.go).
		start := time.Now()
		err := cfg.Work(j.url)
		obs.DefaultTrace.Span("fetch_url", 0, 1, start)
		return err
	})
	p.claimLoop(cfg)
	return p.close()
}

// claimLoop dispatches until the gate and the frontier have nothing
// more, or the pool fails; jobs may still be in flight when it returns.
func (p *dispatchPool) claimLoop(cfg ClaimDispatch) {
	var inflight atomic.Int64
	var dispatched int64
	gateWait := cfg.GateWait
	if gateWait <= 0 {
		gateWait = 10 * time.Millisecond
	}
	scans := 0
	for !p.stopped() {
		if cfg.Gate != nil && !cfg.Gate(dispatched, inflight.Load()) {
			if inflight.Load() == 0 {
				return
			}
			time.Sleep(gateWait)
			continue
		}
		e, sid, ok := cfg.Coll.ClaimDue(cfg.Now())
		if !ok && inflight.Load() == 0 {
			// All workers idle and their releases visible (release
			// happens before the inflight decrement); one more claim
			// settles whether the frontier is drained or a release
			// raced the first claim.
			e, sid, ok = cfg.Coll.ClaimDue(cfg.Now())
		}
		if !ok {
			if !cfg.Idle(inflight.Load(), scans) {
				return
			}
			scans++
			continue
		}
		scans = 0
		inflight.Add(1)
		dispatched++
		j := &crawlJob{url: e.URL, day: cfg.Now()}
		p.submit(dispatchGroup{
			jobs: []*crawlJob{j},
			done: func() {
				// Release before decrementing: once inflight hits zero
				// the dispatcher trusts the frontier to be fully
				// visible.
				if cfg.Release != nil {
					cfg.Release(sid)
				}
				inflight.Add(-1)
			},
		})
	}
}
