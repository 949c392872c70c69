package simweb

import (
	"math"
	"strconv"
)

// Page is one simulated web page. Its content version advances according
// to a Poisson process with the page's change rate; the page is visible in
// its site's window from its birth until DeathDay.
type Page struct {
	url  string
	site *Site
	slot int // structural position within the site window
	uid  int // per-site unique id; distinguishes slot generations

	rateClass    string  // mixture class name, for diagnostics
	ratePerDay   float64 // Poisson change rate (changes/day)
	bornDay      float64
	deathDay     float64 // +Inf for immortal pages (site roots)
	lifespanDays float64 // deathDay - bornDay (Inf for roots)

	// Poisson change state, advanced lazily and monotonically.
	version    int
	advancedTo float64
	nextChange float64
	lastChange float64 // day of the most recent change, or bornDay

	// extraIntra are additional random same-site slots this page links to
	// (beyond the spanning-tree children that keep the window connected).
	extraIntra []int
	// crossSites are indexes of other sites whose roots this page links to.
	crossSites []int

	rnd rng
}

// URL returns the page's URL.
func (p *Page) URL() string { return p.url }

// Rate returns the page's true change rate in changes per day. Oracle
// access for estimator evaluation; a real crawler never sees this.
func (p *Page) Rate() float64 { return p.ratePerDay }

// RateClass returns the mixture class the rate was drawn from.
func (p *Page) RateClass() string { return p.rateClass }

// DeathDay returns the day the page leaves the window (+Inf for roots).
func (p *Page) DeathDay() float64 { return p.deathDay }

// aliveAt reports whether the page is visible at the given day.
func (p *Page) aliveAt(day float64) bool {
	return day >= p.bornDay && day < p.deathDay
}

// advanceTo moves the Poisson change state forward to the given day.
// Calls must be monotone in day, which holds because the web advances
// time monotonically.
func (p *Page) advanceTo(day float64) {
	if day <= p.advancedTo {
		return
	}
	limit := math.Min(day, p.deathDay)
	for p.nextChange <= limit {
		p.version++
		p.lastChange = p.nextChange
		p.nextChange += p.rnd.exp(p.ratePerDay)
	}
	p.advancedTo = day
}

// Snapshot is the observable state of a page at a fetch instant: what a
// crawler sees.
type Snapshot struct {
	URL      string
	Day      float64 // fetch day
	Version  int     // number of content changes since birth
	Checksum uint64  // content checksum; changes iff Version changes
	Links    []string
	// Body is the synthetic HTML embedding Links as anchors; nil from
	// FetchMeta. Each fetch renders a fresh body the caller owns.
	Body []byte
	Size int // length of Body in bytes
}

// snapshot captures the page's state at the given day. The caller must
// have advanced the page (and processed site deaths) first.
func (p *Page) snapshot(day float64, withHTML bool) Snapshot {
	links := p.site.linksOf(p)
	s := Snapshot{
		URL:      p.url,
		Day:      day,
		Version:  p.version,
		Checksum: pageChecksum(p.url, p.version),
		Links:    links,
	}
	if withHTML {
		s.Body = renderHTML(p.url, p.version, links)
		s.Size = len(s.Body)
	} else {
		// Approximate the size a rendered page would have, so bandwidth
		// accounting works even when callers skip HTML generation.
		s.Size = 256 + 64*len(links)
	}
	return s
}

// pageChecksum derives the content checksum from the page identity and
// version. Deliberately independent of link URLs: a neighbouring page
// being replaced rewrites this page's anchor list but must not register as
// a content change, or the change rates the simulated web is calibrated
// to would no longer be the rates a crawler observes. The paper's
// experiment hashes whole page bodies, whose navigation chrome is
// similarly stable.
func pageChecksum(url string, version int) uint64 {
	// FNV-1a over url, '#' and the decimal version.
	h := uint64(fnv64Offset)
	for i := 0; i < len(url); i++ {
		h = (h ^ uint64(url[i])) * fnv64Prime
	}
	h = (h ^ '#') * fnv64Prime
	var num [20]byte
	for _, c := range strconv.AppendInt(num[:0], int64(version), 10) {
		h = (h ^ uint64(c)) * fnv64Prime
	}
	return h
}

const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
	fnv32Offset = 2166136261
	fnv32Prime  = 16777619
)

// renderHTML produces deterministic pseudo-content for a page version,
// with all links as anchors. The crawler's HTML parser extracts exactly
// Links back out of it. It runs once per simulated fetch, on the crawl's
// worker goroutines, so it appends into one buffer sized exactly up
// front: the body is the fetch's only allocation besides the link list.
func renderHTML(url string, version int, links []string) []byte {
	var num [20]byte
	ver := strconv.AppendInt(num[:0], int64(version), 10)
	// A block of version-dependent filler so page size varies with
	// content, as real pages do: 1-5 sections by FNV-1a of the URL.
	h := uint32(fnv32Offset)
	for i := 0; i < len(url); i++ {
		h = (h ^ uint32(url[i])) * fnv32Prime
	}
	para := int(h%5) + 1

	size := 138 + 2*len(url) + 2*len(ver) + para*(30+len(ver)) // exact
	for _, l := range links {
		size += 27 + 2*len(l)
	}
	b := make([]byte, 0, size)
	b = append(b, "<html><head><title>"...)
	b = append(b, url...)
	b = append(b, " v"...)
	b = append(b, ver...)
	b = append(b, "</title></head><body>\n<h1>Synthetic page "...)
	b = append(b, url...)
	b = append(b, "</h1>\n<p>revision "...)
	b = append(b, ver...)
	b = append(b, "; checksum "...)
	var hex [16]byte // %016x
	sum := pageChecksum(url, version)
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = "0123456789abcdef"[sum&0xf]
		sum >>= 4
	}
	b = append(b, hex[:]...)
	b = append(b, "</p>\n"...)
	for i := 0; i < para; i++ {
		b = append(b, "<p>section "...)
		b = append(b, byte('0'+i)) // para <= 5
		b = append(b, " of revision "...)
		b = append(b, ver...)
		b = append(b, "</p>\n"...)
	}
	b = append(b, "<ul>\n"...)
	for _, l := range links {
		b = append(b, "  <li><a href=\""...)
		b = append(b, l...)
		b = append(b, "\">"...)
		b = append(b, l...)
		b = append(b, "</a></li>\n"...)
	}
	return append(b, "</ul>\n</body></html>\n"...)
}
