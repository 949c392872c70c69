package frontier

// peekWindow is the bounded k-way merge behind ApplyRound: the
// best n entries offered so far, held as a max-heap on pop order so the
// current n-th entry — the cut-off any further entry must beat — is
// best[0]. The shards are walked one at a time against one window, and
// each shard's best-first walk ends at the first entry the window
// refuses, so a peek visits O(n + shards) entries instead of n per
// shard. Offers may arrive in any order; the result is the best n of
// everything offered.
type peekWindow struct {
	n    int // list length wanted; at least 1 while offers are made
	best []Entry
	// idxs is memQueue.topN's walk frontier, kept here so one buffer
	// serves every shard of every round.
	idxs []int
}

// reset empties the window for a new peek of n entries.
func (w *peekWindow) reset(n int) {
	w.n = n
	w.best = w.best[:0]
}

// cutoff returns the list's current n-th entry once the list is full:
// only an entry ordering before it can still make the list.
func (w *peekWindow) cutoff() (Entry, bool) {
	if len(w.best) < w.n {
		return Entry{}, false
	}
	return w.best[0], true
}

// offer adds e to the list if it has room or e orders before the
// cut-off (which e then displaces), and reports whether it did.
func (w *peekWindow) offer(e Entry) bool {
	if len(w.best) < w.n {
		w.best = append(w.best, e)
		for i := len(w.best) - 1; i > 0; {
			p := (i - 1) / 2
			if !entryBefore(w.best[p], w.best[i]) {
				break
			}
			w.best[i], w.best[p] = w.best[p], w.best[i]
			i = p
		}
		return true
	}
	if !entryBefore(e, w.best[0]) {
		return false
	}
	w.best[0] = e
	w.down(len(w.best))
	return true
}

// down restores the max-heap over best[:n] after its root was replaced.
func (w *peekWindow) down(n int) {
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		last := i
		if l < n && entryBefore(w.best[last], w.best[l]) {
			last = l
		}
		if r < n && entryBefore(w.best[last], w.best[r]) {
			last = r
		}
		if last == i {
			return
		}
		w.best[i], w.best[last] = w.best[last], w.best[i]
		i = last
	}
}

// sorted heap-sorts the list into pop order in place and returns it. The
// slice aliases the window's buffer and is valid until the next reset.
func (w *peekWindow) sorted() []Entry {
	for end := len(w.best) - 1; end > 0; end-- {
		w.best[0], w.best[end] = w.best[end], w.best[0]
		w.down(end)
	}
	return w.best
}
