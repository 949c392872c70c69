package core

import (
	"sync"
	"time"
)

// The content stage is the third stage of the round pipeline (pop and
// fetch, schedule, content): one goroutine that applies the scheduled
// rounds' content — store PutBatch, web graph — in the order
// the engine hands them over, which is pop order. It exists so the two
// exchanges of a round over a cluster, the frontier commit and the
// store write, overlap: neither depends on the other, and run in series
// they were three quarters of a remote crawl's wall time.
//
// When rounds are already queued behind the one it takes, the stage
// takes them too and applies them all with one store write: the store
// is the slower exchange whenever rounds queue, and a write's cost is
// mostly per call. Order within the write is still pop order, and a
// folded round that drops a page first writes the puts of the rounds
// before it, so every URL sees its writes in the order it would have
// one round at a time (applyContent).
//
// The one rule is the barrier: while the stage has work outstanding,
// nothing else may touch the graph or the collection pair.
// quiesce is that barrier; the ranking pass (with the batch cycle's
// URL snapshot right behind it) and the shadow swap begin with it, and
// RunUntil stops the stage before it returns, so callers between runs
// see every write.
//
// The first content error stops later rounds' content from being
// applied (the stage keeps draining, so nothing blocks behind it) and
// surfaces on the engine goroutine at its next hand-off or barrier,
// where it aborts the rounds still fetching — from the same RunUntil.

const (
	// steadyDepth and batchDepth are how many rounds fetch at once. The
	// steady loop is bounded by the reschedule window anyway; the batch
	// loop pops from a snapshot and needs only enough to hide one
	// round's apply.
	steadyDepth = 4
	batchDepth  = 2

	// contentQueue is how many scheduled rounds may wait behind the one
	// the content stage is applying; a queued round also rides the next
	// store write, which takes every round waiting when it starts. It is
	// a constant because only one value is in use: unbuffered, the
	// engine stalls on every store reply that is slower than a frontier
	// commit (measured +12 % on the cluster benchmark against +27–45 %
	// with two slots), and a deeper queue only holds more fetched pages
	// in memory without making the slower of the two exchanges any
	// faster.
	contentQueue = 2

	// roundBuffers covers every place a round can be at once: fetching,
	// held by the engine between wait and hand-off, queued for content,
	// and being applied — the round the stage took and the ones it took
	// from the queue with it.
	roundBuffers = steadyDepth + 1 + contentQueue + 1 + contentQueue
)

// contentStage is the engine's handle on the content goroutine; it
// lives for one RunUntil.
type contentStage struct {
	// in carries scheduled rounds to the stage, FIFO.
	in chan *roundState
	// free holds the round buffers nobody is using. The stage returns a
	// buffer only once the store write that reads its jobs' bodies has
	// returned; its capacity is the buffer count, so returning one never
	// blocks.
	free chan *roundState
	// pending counts rounds handed over and not yet finished. Add and
	// Wait are both engine-goroutine calls.
	pending sync.WaitGroup
	exited  chan struct{}

	errMu    sync.Mutex
	firstErr error
}

// startContent starts the stage with every round buffer free.
func (c *Crawler) startContent() *contentStage {
	for len(c.roundBufs) < roundBuffers {
		c.roundBufs = append(c.roundBufs, &roundState{})
	}
	st := &contentStage{
		in:     make(chan *roundState, contentQueue),
		free:   make(chan *roundState, roundBuffers),
		exited: make(chan struct{}),
	}
	for _, r := range c.roundBufs {
		st.free <- r
	}
	go func() {
		defer close(st.exited)
		rounds := make([]*roundState, 0, contentQueue+1)
		for r := range st.in {
			rounds = append(rounds[:0], r)
			rounds = takeQueued(st.in, rounds)
			if st.err() == nil {
				if err := c.applyContent(rounds); err != nil {
					st.fail(err)
				}
				engineURLsKnown.Set(int64(c.ids.Len()))
				engineGraphLinks.Set(int64(c.graph.NumLinks()))
			}
			for _, r := range rounds {
				engineContentBacklog.Add(-1)
				st.free <- r
				st.pending.Done()
			}
		}
	}()
	return st
}

// takeQueued appends to rounds every round already waiting on in, up to
// cap(rounds), without blocking.
func takeQueued(in <-chan *roundState, rounds []*roundState) []*roundState {
	for len(rounds) < cap(rounds) {
		select {
		case r, ok := <-in:
			if !ok {
				return rounds
			}
			rounds = append(rounds, r)
		default:
			return rounds
		}
	}
	return rounds
}

func (st *contentStage) fail(err error) {
	st.errMu.Lock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.errMu.Unlock()
}

func (st *contentStage) err() error {
	st.errMu.Lock()
	defer st.errMu.Unlock()
	return st.firstErr
}

// submit hands a scheduled round to the stage, blocking while the queue
// is full, and reports the stage's error so far.
func (st *contentStage) submit(r *roundState) error {
	start := time.Now()
	st.pending.Add(1)
	engineContentBacklog.Add(1)
	st.in <- r
	phaseContentWait.Observe(time.Since(start).Seconds())
	return st.err()
}

// wait blocks until the stage has finished everything handed to it and
// reports its error.
func (st *contentStage) wait() error {
	start := time.Now()
	st.pending.Wait()
	phaseContentWait.Observe(time.Since(start).Seconds())
	return st.err()
}

// stop ends the stage once it has drained and reports its error.
func (st *contentStage) stop() error {
	close(st.in)
	<-st.exited
	return st.err()
}

// quiesce is the barrier before anything outside the round pipeline
// reads or writes the frontier, the graph or the collection:
// pending pops and waiting commits are shipped and the candidate cache
// dropped (frontier.Rounds), and the content stage is idle.
func (c *Crawler) quiesce() error {
	ferr := c.rounds.Flush()
	if err := c.content.wait(); err != nil {
		return err
	}
	return ferr
}
