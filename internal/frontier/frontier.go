// Package frontier implements CollUrls, the revisit queue of the
// paper's incremental-crawler architecture (Figure 12): the set of URLs
// that are (or will be) in the Collection, implemented as a priority
// queue "where the URLs to be crawled early are placed in the front".
// The UpdateModule pops the head, crawls it, and pushes it back with its
// next scheduled visit time; the RankingModule pushes brand-new URLs at
// the very front so they are crawled immediately. Sharded is that queue,
// partitioned by site.
//
// The figure's other URL structure, AllUrls, is no type of this
// package: it is the crawl's URL table (urlid.Table), and the links it
// was given are the page graph (webgraph.Graph).
package frontier

// Entry is one element of the revisit queue (the paper's CollUrls).
type Entry struct {
	URL string
	// Due is the scheduled visit time; the queue pops the earliest Due
	// first. The RankingModule schedules new pages with Due = -Inf
	// semantics by using a very early time.
	Due float64
	// Priority breaks Due ties: higher first (importance).
	Priority float64
	// slot is the in-memory queue slot the entry was read from. A copy
	// the queue hands out keeps it, so pushing that copy back finds its
	// slot without a URL lookup; the queue checks it before trusting it.
	slot int32
}

// Equal reports whether e and o are the same entry: URL, Due and
// Priority. The slot only says which queue slot a copy was read from.
func (e Entry) Equal(o Entry) bool {
	return e.URL == o.URL && e.Due == o.Due && e.Priority == o.Priority
}
