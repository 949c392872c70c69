package simweb

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"webevolve/internal/webgraph"
)

func small(t *testing.T, seed int64) *Web {
	t.Helper()
	w, err := New(SmallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SitesPerDomain: map[Domain]int{Com: -1}},
		{SitesPerDomain: map[Domain]int{}, PagesPerSite: 10},
		{SitesPerDomain: map[Domain]int{Com: 1}, PagesPerSite: -3},
		{SitesPerDomain: map[Domain]int{Com: 1}, PagesPerSite: 5,
			Mixtures: map[Domain]Mixture{Com: {{Name: "x", Weight: 0.5, MinIntervalDays: 1, MaxIntervalDays: 2}}}},
		{SitesPerDomain: map[Domain]int{Com: 1}, PagesPerSite: 5, IntraLinksPerPage: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if err := (SmallConfig(1)).Validate(); err != nil {
		t.Fatalf("small config rejected: %v", err)
	}
}

func TestMixtureValidate(t *testing.T) {
	if err := (Mixture{}).Validate(); err == nil {
		t.Fatal("empty mixture accepted")
	}
	m := Mixture{{Name: "a", Weight: -0.1, MinIntervalDays: 1, MaxIntervalDays: 2}}
	if err := m.Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	m = Mixture{{Name: "a", Weight: 1, MinIntervalDays: 3, MaxIntervalDays: 2}}
	if err := m.Validate(); err == nil {
		t.Fatal("inverted interval accepted")
	}
	for d, dm := range DefaultMixtures {
		if err := dm.Validate(); err != nil {
			t.Errorf("default mixture %s invalid: %v", d, err)
		}
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	w1 := small(t, 7)
	w2 := small(t, 7)
	for _, day := range []float64{0, 3.5, 20, 90} {
		for _, s := range w1.Sites() {
			urls1 := s.WindowURLs(day)
			s2, ok := w2.SiteByHost(s.Host())
			if !ok {
				t.Fatalf("site %s missing in twin", s.Host())
			}
			urls2 := s2.WindowURLs(day)
			if len(urls1) != len(urls2) {
				t.Fatalf("day %v site %s: window sizes differ", day, s.Host())
			}
			for i := range urls1 {
				if urls1[i] != urls2[i] {
					t.Fatalf("day %v: %s vs %s", day, urls1[i], urls2[i])
				}
				a, err1 := w1.FetchMeta(urls1[i], day)
				b, err2 := w2.FetchMeta(urls2[i], day)
				if err1 != nil || err2 != nil {
					t.Fatalf("fetch errors %v %v", err1, err2)
				}
				if a.Checksum != b.Checksum || a.Version != b.Version {
					t.Fatalf("snapshots diverge for %s at %v", urls1[i], day)
				}
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	w1 := small(t, 1)
	w2 := small(t, 2)
	diff := 0
	for _, s := range w1.Sites() {
		for _, u := range s.WindowURLs(30) {
			a, err1 := w1.FetchMeta(u, 30)
			b, err2 := w2.FetchMeta(u, 30)
			if err1 == nil && err2 == nil && a.Version != b.Version {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical evolution")
	}
}

func TestChecksumChangesIffVersionChanges(t *testing.T) {
	w := small(t, 3)
	root := w.Sites()[0].RootURL()
	var prev Snapshot
	for day := 0.0; day < 40; day++ {
		snap, err := w.FetchMeta(root, day)
		if err != nil {
			t.Fatal(err)
		}
		if day > 0 {
			if (snap.Version != prev.Version) != (snap.Checksum != prev.Checksum) {
				t.Fatalf("day %v: version %d->%d but checksum equal=%v",
					day, prev.Version, snap.Version, snap.Checksum == prev.Checksum)
			}
		}
		prev = snap
	}
}

func TestFetchUnknownsFail(t *testing.T) {
	w := small(t, 4)
	if _, err := w.Fetch("http://nosuchhost.com/", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown host error %v", err)
	}
	if _, err := w.Fetch(w.Sites()[0].RootURL()+"p99999", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown page error %v", err)
	}
}

func TestDeadPageBecomesNotFound(t *testing.T) {
	w := small(t, 5)
	// Find a page that dies within 400 days.
	var victim string
	var death float64
	for _, s := range w.Sites() {
		for _, p := range s.AlivePages(0) {
			if !math.IsInf(p.DeathDay(), 1) && p.DeathDay() < 400 {
				victim, death = p.URL(), p.DeathDay()
				break
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Fatal("no dying page in horizon")
	}
	if _, err := w.FetchMeta(victim, death-0.5); err != nil {
		t.Fatalf("page dead before death day: %v", err)
	}
	if _, err := w.FetchMeta(victim, death+0.5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dead page still fetchable: %v", err)
	}
}

func TestWindowSizeStableUnderChurn(t *testing.T) {
	w := small(t, 6)
	want := w.Config().PagesPerSite
	for _, day := range []float64{0, 50, 200, 500} {
		for _, s := range w.Sites() {
			if got := len(s.WindowURLs(day)); got != want {
				t.Fatalf("site %s day %v: window %d, want %d", s.Host(), day, got, want)
			}
		}
	}
	// Churn must actually happen over 500 days.
	born, died := w.Sites()[0].Churn()
	if died == 0 || born <= want {
		t.Fatalf("no churn: born=%d died=%d", born, died)
	}
}

func TestRootIsImmortalAndStable(t *testing.T) {
	w := small(t, 8)
	for _, s := range w.Sites() {
		root := s.RootURL()
		for _, day := range []float64{0, 300, 900} {
			if _, err := w.FetchMeta(root, day); err != nil {
				t.Fatalf("root %s gone at %v: %v", root, day, err)
			}
		}
	}
}

func TestWindowReachableFromRootViaLinks(t *testing.T) {
	// Every page in a site's window must be reachable breadth-first from
	// the root following in-window links (the paper's window semantics).
	w := small(t, 9)
	day := 10.0
	for _, s := range w.Sites() {
		window := s.WindowURLs(day)
		inWindow := make(map[string]bool, len(window))
		for _, u := range window {
			inWindow[u] = true
		}
		visited := map[string]bool{s.RootURL(): true}
		queue := []string{s.RootURL()}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			snap, err := w.FetchMeta(u, day)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range snap.Links {
				if inWindow[l] && !visited[l] {
					visited[l] = true
					queue = append(queue, l)
				}
			}
		}
		for _, u := range window {
			if !visited[u] {
				t.Fatalf("site %s: window page %s unreachable from root", s.Host(), u)
			}
		}
	}
}

func TestLinksContainNoDeadPages(t *testing.T) {
	w := small(t, 10)
	day := 120.0
	for _, s := range w.Sites() {
		for _, u := range s.WindowURLs(day) {
			snap, err := w.FetchMeta(u, day)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range snap.Links {
				if _, err := w.FetchMeta(l, day); err != nil {
					t.Fatalf("page %s links to dead %s: %v", u, l, err)
				}
			}
		}
	}
}

func TestHTMLEmbedsLinks(t *testing.T) {
	w := small(t, 11)
	root := w.Sites()[0].RootURL()
	snap, err := w.Fetch(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Body) == 0 || snap.Size != len(snap.Body) {
		t.Fatalf("Fetch returned a %d-byte body of size %d", len(snap.Body), snap.Size)
	}
	for _, l := range snap.Links {
		if !bytes.Contains(snap.Body, []byte("\""+l+"\"")) {
			t.Fatalf("HTML missing link %s", l)
		}
	}
	lite, err := w.FetchMeta(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lite.Body != nil {
		t.Fatal("FetchMeta rendered HTML")
	}
	if lite.Checksum != snap.Checksum {
		t.Fatal("FetchMeta checksum differs from Fetch")
	}
}

func TestPageOracle(t *testing.T) {
	w := small(t, 12)
	root := w.Sites()[0].RootURL()
	rate, v0, err := w.PageOracle(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("rate %v", rate)
	}
	_, v1, err := w.PageOracle(root, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if v1 < v0 {
		t.Fatalf("version went backwards: %d -> %d", v0, v1)
	}
}

func TestVersionCountMatchesRate(t *testing.T) {
	// Aggregated over many pages, observed change counts should track
	// rate*T.
	w, err := New(Config{
		Seed:           21,
		SitesPerDomain: map[Domain]int{Com: 2},
		PagesPerSite:   200,
	})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 60.0
	var wantSum, gotSum float64
	for _, s := range w.Sites() {
		for _, p := range s.AlivePages(0) {
			if p.DeathDay() < horizon {
				continue
			}
			rate, v, err := w.PageOracle(p.URL(), horizon)
			if err != nil {
				t.Fatal(err)
			}
			if rate > 1 {
				continue // ultra-hot pages dominate variance; skip
			}
			wantSum += rate * horizon
			gotSum += float64(v)
		}
	}
	if wantSum == 0 {
		t.Fatal("no moderate pages sampled")
	}
	if math.Abs(gotSum-wantSum)/wantSum > 0.15 {
		t.Fatalf("changes %v, want ~%v", gotSum, wantSum)
	}
}

func TestDomainComposition(t *testing.T) {
	w := small(t, 13)
	counts := map[Domain]int{}
	for _, s := range w.Sites() {
		counts[s.Domain()]++
	}
	cfg := SmallConfig(13)
	for d, n := range cfg.SitesPerDomain {
		if counts[d] != n {
			t.Fatalf("domain %s: %d sites, want %d", d, counts[d], n)
		}
	}
}

func TestHostForSubSplits(t *testing.T) {
	// Table 1 sub-splits: 30 netorg = 19 org + 11 net; 30 gov = 28 gov +
	// 2 mil.
	org, net, gov, mil := 0, 0, 0, 0
	for i := 0; i < 30; i++ {
		if strings.HasSuffix(hostFor(NetOrg, i, 30), ".org") {
			org++
		} else {
			net++
		}
		switch {
		case strings.HasSuffix(hostFor(Gov, i, 30), ".mil"):
			mil++
		default:
			gov++
		}
	}
	if org != 19 || net != 11 {
		t.Fatalf("netorg split %d/%d, want 19/11", org, net)
	}
	if gov != 28 || mil != 2 {
		t.Fatalf("gov split %d/%d, want 28/2", gov, mil)
	}
}

func TestDomainOfURL(t *testing.T) {
	w := small(t, 14)
	for _, s := range w.Sites() {
		d, ok := w.DomainOf(s.RootURL())
		if !ok || d != s.Domain() {
			t.Fatalf("DomainOf(%s) = %v,%v", s.RootURL(), d, ok)
		}
	}
	if _, ok := w.DomainOf("http://unknown.io/"); ok {
		t.Fatal("unknown host classified")
	}
}

func TestBuildGraphMatchesWindows(t *testing.T) {
	w := small(t, 15)
	g := w.BuildGraph(5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range w.Sites() {
		total += len(s.WindowURLs(5))
	}
	if g.NumPages() < total {
		t.Fatalf("graph has %d pages, windows have %d", g.NumPages(), total)
	}
	for _, s := range w.Sites() {
		if !g.HasPage(s.RootURL()) {
			t.Fatalf("graph missing root %s", s.RootURL())
		}
	}
}

func TestSiteGraphHasAllSites(t *testing.T) {
	w := small(t, 16)
	sg := w.SiteGraph(0)
	if len(sg.Sites) != len(w.Sites()) {
		t.Fatalf("site graph has %d sites, want %d", len(sg.Sites), len(w.Sites()))
	}
}

func TestPopularityRanksAreAPermutation(t *testing.T) {
	w := small(t, 17)
	seen := make(map[int]bool)
	for _, s := range w.Sites() {
		r := s.PopularityRank()
		if r < 0 || r >= len(w.Sites()) || seen[r] {
			t.Fatalf("bad popularity rank %d", r)
		}
		seen[r] = true
	}
}

func TestScanWindowMatchesFetchMeta(t *testing.T) {
	w := small(t, 18)
	day := 25.0
	for _, s := range w.Sites()[:3] {
		s.ScanWindow(day, func(url string, sum uint64) {
			snap, err := w.FetchMeta(url, day)
			if err != nil {
				t.Fatalf("scan url %s unfetchable: %v", url, err)
			}
			if snap.Checksum != sum {
				t.Fatalf("scan checksum mismatch for %s", url)
			}
		})
	}
}

func TestMonotoneAdvanceProperty(t *testing.T) {
	// Versions never decrease under arbitrary monotone query sequences.
	if err := quick.Check(func(steps []uint8) bool {
		w, err := New(SmallConfig(20))
		if err != nil {
			return false
		}
		root := w.Sites()[0].RootURL()
		day, prevV := 0.0, -1
		for _, st := range steps {
			day += float64(st%40) / 4
			snap, err := w.FetchMeta(root, day)
			if err != nil {
				return false
			}
			if snap.Version < prevV {
				return false
			}
			prevV = snap.Version
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGLogUniformWithinBounds(t *testing.T) {
	r := newRNG(1, 2, 3)
	for i := 0; i < 10000; i++ {
		v := r.logUniform(2, 50)
		if v < 2 || v > 50 {
			t.Fatalf("logUniform out of bounds: %v", v)
		}
	}
}

func TestRNGExpPositive(t *testing.T) {
	r := newRNG(5)
	for i := 0; i < 10000; i++ {
		if v := r.exp(3); v <= 0 || math.IsInf(v, 0) {
			t.Fatalf("exp variate %v", v)
		}
	}
	if !math.IsInf(r.exp(0), 1) {
		t.Fatal("zero-rate exp must be +Inf")
	}
}

func TestDomainOfMatchesWebgraph(t *testing.T) {
	w := small(t, 22)
	for _, s := range w.Sites() {
		if string(s.Domain()) != webgraph.DomainOf(s.Host()) {
			t.Fatalf("domain mismatch for %s", s.Host())
		}
	}
}

// TestLinksChangeAtConstantVersion pins that a page's checksum does not
// cover its links: the checksum hashes the URL and version, while the
// links (and the body that embeds them) follow the current occupants of
// the linked slots, so churn elsewhere in the site rewrites a page
// whose version stands still. A crawler that skips link extraction on
// an unchanged checksum therefore misses these links until the page
// next changes.
func TestLinksChangeAtConstantVersion(t *testing.T) {
	w := small(t, 3)
	for _, s := range w.Sites() {
		root := s.RootURL()
		prev, err := w.Fetch(root, 0)
		if err != nil {
			t.Fatal(err)
		}
		for day := 1.0; day <= 120; day++ {
			snap, err := w.Fetch(root, day)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Version == prev.Version && !slices.Equal(snap.Links, prev.Links) {
				if snap.Checksum != prev.Checksum {
					t.Fatalf("%s days %v-%v: checksum moved at constant version %d", root, day-1, day, snap.Version)
				}
				if bytes.Equal(snap.Body, prev.Body) {
					t.Fatalf("%s days %v-%v: links changed but the body did not", root, day-1, day)
				}
				return
			}
			prev = snap
		}
	}
	t.Fatal("no page changed its links at a constant version")
}

// TestRootURLsAreSitesInOrder: the seed list is every site's root, in
// site order, each once and each fetchable from day 0.
func TestRootURLsAreSitesInOrder(t *testing.T) {
	w := small(t, 30)
	roots := w.RootURLs()
	want := 0
	for _, n := range SmallConfig(30).SitesPerDomain {
		want += n
	}
	if len(roots) != want || len(roots) != len(w.Sites()) {
		t.Fatalf("%d roots for %d sites, want %d", len(roots), len(w.Sites()), want)
	}
	seen := map[string]bool{}
	for i, u := range roots {
		if u != w.Sites()[i].RootURL() || seen[u] {
			t.Fatalf("root %d is %s, site root %s (repeat: %v)", i, u, w.Sites()[i].RootURL(), seen[u])
		}
		seen[u] = true
		if _, err := w.FetchMeta(u, 0); err != nil {
			t.Fatalf("root %s unfetchable: %v", u, err)
		}
	}
}

// TestNumPagesCountsWindowSlots: the page count is sites times window
// size, and churn keeps every slot filled, so it equals the pages
// alive on any later day.
func TestNumPagesCountsWindowSlots(t *testing.T) {
	w := small(t, 31)
	want := len(w.Sites()) * SmallConfig(31).PagesPerSite
	if got := w.NumPages(); got != want {
		t.Fatalf("NumPages = %d, want %d", got, want)
	}
	alive := 0
	for _, s := range w.Sites() {
		alive += len(s.AlivePages(90))
	}
	if alive != want || w.NumPages() != want {
		t.Fatalf("day 90: %d pages alive, NumPages %d, want %d", alive, w.NumPages(), want)
	}
	if born, _ := w.Sites()[0].Churn(); born <= SmallConfig(31).PagesPerSite {
		t.Fatalf("no churn by day 90 (%d born): the test checks nothing", born)
	}
}

// TestScanAllCoversEverySiteWindow: one ScanAll visits each site's
// window exactly, attributes each URL to its own site, and reports the
// checksum a fetch would.
func TestScanAllCoversEverySiteWindow(t *testing.T) {
	w := small(t, 32)
	const day = 40.0
	got := map[string]int{}
	w.ScanAll(day, func(site *Site, url string, sum uint64) {
		if webgraph.SiteOf(url) != site.Host() {
			t.Fatalf("%s reported on site %s", url, site.Host())
		}
		snap, err := w.FetchMeta(url, day)
		if err != nil || snap.Checksum != sum {
			t.Fatalf("%s: scan checksum %x, fetch %x (%v)", url, sum, snap.Checksum, err)
		}
		got[url]++
	})
	n := 0
	for _, s := range w.Sites() {
		for _, u := range s.WindowURLs(day) {
			if got[u] != 1 {
				t.Fatalf("%s visited %d times", u, got[u])
			}
			n++
		}
	}
	if len(got) != n {
		t.Fatalf("scan visited %d URLs, the windows hold %d", len(got), n)
	}
}

// TestPaperScaleConfig: the paper-scale web is Table 1's 270 sites,
// with a 300-page window unless another size is given.
func TestPaperScaleConfig(t *testing.T) {
	c := PaperScaleConfig(7, 0)
	if c.PagesPerSite != 300 || c.Seed != 7 {
		t.Fatalf("default paper scale: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := PaperScaleConfig(7, 3000).PagesPerSite; got != 3000 {
		t.Fatalf("PagesPerSite %d, want the paper's 3000", got)
	}
	w, err := New(PaperScaleConfig(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sites()) != 270 || w.NumPages() != 540 {
		t.Fatalf("%d sites, %d pages: want 270 and 540", len(w.Sites()), w.NumPages())
	}
	counts := map[Domain]int{}
	for _, s := range w.Sites() {
		counts[s.Domain()]++
	}
	for d, n := range PaperSitesPerDomain {
		if counts[d] != n {
			t.Fatalf("domain %s: %d sites, want Table 1's %d", d, counts[d], n)
		}
	}
}

// TestPageRateDrawnFromItsClass: every page names a rate class of its
// domain's mixture, and its rate's mean interval lies in that class's
// range.
func TestPageRateDrawnFromItsClass(t *testing.T) {
	w := small(t, 33)
	classes := map[string]int{}
	for _, s := range w.Sites() {
		mix := DefaultMixtures[s.Domain()]
		for _, p := range s.AlivePages(0) {
			i := slices.IndexFunc(mix, func(c RateClass) bool { return c.Name == p.RateClass() })
			if i < 0 {
				t.Fatalf("%s: class %q is not in the %s mixture", p.URL(), p.RateClass(), s.Domain())
			}
			if iv := 1 / p.Rate(); iv < mix[i].MinIntervalDays || iv > mix[i].MaxIntervalDays {
				t.Fatalf("%s: interval %v days outside class %s's [%v, %v]", p.URL(), iv, p.RateClass(), mix[i].MinIntervalDays, mix[i].MaxIntervalDays)
			}
			classes[p.RateClass()]++
		}
	}
	if len(classes) < 2 {
		t.Fatalf("pages drew from classes %v only", classes)
	}
}
