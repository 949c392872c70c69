package simweb

import (
	"fmt"
	"math"
	"slices"
)

// branching is the spanning-tree fan-out that keeps every site window
// connected: slot i links to slots branching*i+1 .. branching*i+branching.
// BFS from the root therefore reaches all slots in slot order, exactly the
// "window of pages reachable breadth first from the root" of Section 2.1.
const branching = 8

// Site is one simulated web site: a window of pages rooted at an immortal
// root page.
type Site struct {
	web    *Web
	index  int
	host   string
	root   string // "http://" + host + "/", built once in New
	domain Domain

	// popRank is the site's intrinsic popularity rank (0 = most popular
	// in the universe); cross links prefer low ranks.
	popRank int

	pages      []*Page          // by slot
	byURL      map[string]*Page // all generations, including dead pages
	uidCounter int
	advancedTo float64

	mixCum       []float64 // cumulative mixture weights
	lifespanMean float64

	// bornCount / diedCount track window churn for diagnostics.
	bornCount, diedCount int
}

// Host returns the site's host name.
func (s *Site) Host() string { return s.host }

// Domain returns the site's domain group.
func (s *Site) Domain() Domain { return s.domain }

// PopularityRank returns the site's intrinsic popularity rank (0 = most
// popular). Oracle access for validating the site-selection experiment.
func (s *Site) PopularityRank() int { return s.popRank }

// RootURL returns the site's root page URL.
func (s *Site) RootURL() string { return s.root }

// urlFor builds the URL for a page uid.
func (s *Site) urlFor(uid int) string {
	if uid == 0 {
		return s.root
	}
	return fmt.Sprintf("http://%s/p%05d", s.host, uid)
}

// newPage creates the page occupying slot at bornDay.
func (s *Site) newPage(slot int, bornDay float64) *Page {
	uid := s.uidCounter
	s.uidCounter++
	p := &Page{
		site:       s,
		slot:       slot,
		uid:        uid,
		url:        s.urlFor(uid),
		bornDay:    bornDay,
		advancedTo: bornDay,
		lastChange: bornDay,
		rnd:        newRNG(s.web.cfg.Seed, uint64(s.index)<<32|uint64(uid)),
	}
	// Change rate from the domain mixture.
	mix := s.web.cfg.Mixtures[s.domain]
	ci := p.rnd.pick(s.mixCum)
	class := mix[ci]
	interval := p.rnd.logUniform(class.MinIntervalDays, class.MaxIntervalDays)
	p.rateClass = class.Name
	p.ratePerDay = 1 / interval
	p.nextChange = bornDay + p.rnd.exp(p.ratePerDay)
	// Lifespan: roots are immortal so the site stays crawlable, matching
	// the stable root pages of the paper's 270 sites.
	if slot == 0 || s.lifespanMean <= 0 {
		p.deathDay = math.Inf(1)
		p.lifespanDays = math.Inf(1)
	} else {
		p.lifespanDays = p.rnd.exp(1 / s.lifespanMean)
		p.deathDay = bornDay + p.lifespanDays
	}
	// Extra intra-site links.
	n := len(s.pages)
	if n == 0 {
		n = s.web.cfg.PagesPerSite
	}
	for i := 0; i < s.web.cfg.IntraLinksPerPage; i++ {
		p.extraIntra = append(p.extraIntra, p.rnd.intn(n))
	}
	// Cross-site links to popular roots.
	for i := 0; i < s.web.cfg.CrossLinksPerPage; i++ {
		t := s.web.sampleSite(&p.rnd)
		if t != s.index {
			p.crossSites = append(p.crossSites, t)
		}
	}
	s.byURL[p.url] = p
	s.bornCount++
	return p
}

// advanceTo processes page deaths/replacements and nothing else; page
// change state advances lazily at fetch time.
func (s *Site) advanceTo(day float64) {
	if day <= s.advancedTo {
		return
	}
	for slot, p := range s.pages {
		for p.deathDay <= day {
			// Freeze the dying page's change state at its death and
			// replace it in the window.
			p.advanceTo(p.deathDay)
			s.diedCount++
			np := s.newPage(slot, p.deathDay)
			s.pages[slot] = np
			p = np
		}
	}
	s.advancedTo = day
}

// linksOf returns the current out-links of p: spanning-tree children,
// extra intra-site links and cross-site root links, each once, in
// first-occurrence order and without p's own URL. Link targets are the
// *current* occupants of the linked slots. It runs on every fetch, so
// it gathers candidates on the stack, drops duplicates by a linear scan
// (a page has about a dozen candidates) and allocates only the
// exactly-sized list it returns.
func (s *Site) linksOf(p *Page) []string {
	var buf [16]string
	out := buf[:0]
	add := func(u string) {
		if u == p.url || slices.Contains(out, u) {
			return
		}
		out = append(out, u)
	}
	lo := branching*p.slot + 1
	for c := lo; c < lo+branching && c < len(s.pages); c++ {
		add(s.pages[c].url)
	}
	for _, slot := range p.extraIntra {
		if slot < len(s.pages) {
			add(s.pages[slot].url)
		}
	}
	for _, si := range p.crossSites {
		add(s.web.sites[si].root)
	}
	if len(out) == 0 {
		return nil
	}
	return append(make([]string, 0, len(out)), out...)
}

// WindowURLs returns the URLs currently visible in the site's window at
// the given day, in BFS (slot) order. It advances the site to day first.
func (s *Site) WindowURLs(day float64) []string {
	s.advanceTo(day)
	out := make([]string, 0, len(s.pages))
	for _, p := range s.pages {
		if p.aliveAt(day) {
			out = append(out, p.url)
		}
	}
	return out
}

// AlivePages returns the live pages at the given day in slot order.
// Oracle access for tests and calibration.
func (s *Site) AlivePages(day float64) []*Page {
	s.advanceTo(day)
	out := make([]*Page, 0, len(s.pages))
	for _, p := range s.pages {
		if p.aliveAt(day) {
			out = append(out, p)
		}
	}
	return out
}

// Churn reports how many pages were ever created in this site and how
// many have died.
func (s *Site) Churn() (born, died int) { return s.bornCount, s.diedCount }
