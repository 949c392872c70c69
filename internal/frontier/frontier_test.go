package frontier

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestAllUrlsAdd(t *testing.T) {
	a := NewAllUrls()
	if !a.Add("http://x.com/", 1) {
		t.Fatal("first add not new")
	}
	if a.Add("http://x.com/", 2) {
		t.Fatal("second add reported new")
	}
	info, ok := a.Get("http://x.com/")
	if !ok || info.FirstSeen != 1 {
		t.Fatalf("info %+v ok=%v", info, ok)
	}
	if a.Len() != 1 {
		t.Fatalf("len %d", a.Len())
	}
}

func TestAllUrlsAddLinkCountsDistinctSources(t *testing.T) {
	a := NewAllUrls()
	a.AddLink("http://s1.com/", "http://t.com/", 0)
	a.AddLink("http://s1.com/", "http://t.com/", 1) // duplicate pair
	a.AddLink("http://s2.com/", "http://t.com/", 2)
	info, ok := a.Get("http://t.com/")
	if !ok || info.InLinks != 2 {
		t.Fatalf("in-links %d, want 2", info.InLinks)
	}
	if info.FirstSeen != 0 {
		t.Fatalf("first seen %v", info.FirstSeen)
	}
}

func TestAllUrlsScanSortedAndStoppable(t *testing.T) {
	a := NewAllUrls()
	for _, u := range []string{"http://c.com/", "http://a.com/", "http://b.com/"} {
		a.Add(u, 0)
	}
	var seen []string
	a.Scan(func(i URLInfo) bool {
		seen = append(seen, i.URL)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != "http://a.com/" || seen[1] != "http://b.com/" {
		t.Fatalf("scan %v", seen)
	}
}

// TestAllUrlsLinkReenteringCountsOnce: a (from, to) pair counts toward
// InLinks once, however often the link leaves the page and comes back.
func TestAllUrlsLinkReenteringCountsOnce(t *testing.T) {
	a := NewAllUrls()
	a.Add("http://s.com/", 0)
	a.AddLink("http://s.com/", "http://t.com/", 1)
	a.AddLink("http://s.com/", "http://u.com/", 2) // t left the page
	a.AddLink("http://s.com/", "http://t.com/", 3) // and came back
	a.AddLink("http://u.com/", "http://t.com/", 4)
	if info, _ := a.Get("http://t.com/"); info.InLinks != 2 || info.FirstSeen != 1 {
		t.Fatalf("t %+v, want 2 in-links first seen at 1", info)
	}
	if info, _ := a.Get("http://u.com/"); info.InLinks != 1 {
		t.Fatalf("u %+v, want 1 in-link", info)
	}
}

// TestAllUrlsSourceOnlyIsNotARecord: a URL that only ever reported
// links, and was never added or linked to, has no record.
func TestAllUrlsSourceOnlyIsNotARecord(t *testing.T) {
	a := NewAllUrls()
	a.AddLink("http://src.com/", "http://t.com/", 1)
	if _, ok := a.Get("http://src.com/"); ok {
		t.Fatal("source-only URL has a record")
	}
	if a.Len() != 1 {
		t.Fatalf("len %d, want 1", a.Len())
	}
	var seen []string
	a.Scan(func(i URLInfo) bool { seen = append(seen, i.URL); return true })
	if len(seen) != 1 || seen[0] != "http://t.com/" {
		t.Fatalf("scan %v", seen)
	}
	// Adding it later makes it a record from then on, with no in-links.
	if !a.Add("http://src.com/", 5) {
		t.Fatal("add of a source-only URL not new")
	}
	if info, ok := a.Get("http://src.com/"); !ok || info.FirstSeen != 5 || info.InLinks != 0 {
		t.Fatalf("src %+v ok=%v", info, ok)
	}
	if a.Len() != 2 {
		t.Fatalf("len %d, want 2", a.Len())
	}
}

func TestQueuePopOrder(t *testing.T) {
	q := NewSharded(1)
	q.Push("http://b.com/", 5, 0)
	q.Push("http://a.com/", 1, 0)
	q.Push("http://c.com/", 3, 0)
	var order []string
	for q.Len() > 0 {
		e, ok := roundPop(q)
		if !ok {
			t.Fatal("queue drained early")
		}
		order = append(order, e.URL)
	}
	want := []string{"http://a.com/", "http://c.com/", "http://b.com/"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v", order)
		}
	}
}

func TestQueueTieBreaks(t *testing.T) {
	q := NewSharded(1)
	q.Push("http://low.com/", 1, 0.1)
	q.Push("http://high.com/", 1, 0.9)
	e, _ := roundPop(q)
	if e.URL != "http://high.com/" {
		t.Fatalf("priority tie-break failed: %v", e.URL)
	}
	// Equal due and priority: lexicographic.
	q = NewSharded(1)
	q.Push("http://b.com/", 2, 0)
	q.Push("http://a.com/", 2, 0)
	e, _ = roundPop(q)
	if e.URL != "http://a.com/" {
		t.Fatalf("URL tie-break failed: %v", e.URL)
	}
}

func TestQueuePushReschedules(t *testing.T) {
	q := NewSharded(1)
	q.Push("http://x.com/", 10, 0)
	q.Push("http://x.com/", 1, 0.5) // reschedule earlier
	if q.Len() != 1 {
		t.Fatalf("len %d after reschedule", q.Len())
	}
	e, _ := roundPop(q)
	if e.Due != 1 || e.Priority != 0.5 {
		t.Fatalf("entry %+v", e)
	}
}

func TestQueuePopDue(t *testing.T) {
	q := NewSharded(1)
	q.Push("http://later.com/", 10, 0)
	if _, ok := q.PopDue(5); ok {
		t.Fatal("future entry popped")
	}
	q.Push("http://now.com/", 2, 0)
	e, ok := q.PopDue(5)
	if !ok || e.URL != "http://now.com/" {
		t.Fatalf("due pop %+v ok=%v", e, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("len %d", q.Len())
	}
}

func TestQueuePeekAndRemove(t *testing.T) {
	q := NewSharded(1)
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty succeeded")
	}
	q.Push("http://a.com/", 1, 0)
	q.Push("http://b.com/", 2, 0)
	e, ok := q.Peek()
	if !ok || e.URL != "http://a.com/" || q.Len() != 2 {
		t.Fatalf("peek %+v", e)
	}
	if !q.Remove("http://a.com/") {
		t.Fatal("remove failed")
	}
	if q.Remove("http://a.com/") {
		t.Fatal("double remove succeeded")
	}
	if q.Contains("http://a.com/") {
		t.Fatal("removed URL still contained")
	}
	e, _ = roundPop(q)
	if e.URL != "http://b.com/" {
		t.Fatalf("heap broken after remove: %+v", e)
	}
}

func TestQueuePopEmpty(t *testing.T) {
	q := NewSharded(1)
	if e, ok := roundPop(q); ok {
		t.Fatalf("pop empty: %+v", e)
	}
}

func TestQueueURLsSorted(t *testing.T) {
	q := NewSharded(1)
	q.Push("http://z.com/", 1, 0)
	q.Push("http://a.com/", 9, 0)
	urls := q.URLs()
	if len(urls) != 2 || urls[0] != "http://a.com/" {
		t.Fatalf("URLs %v", urls)
	}
}

// TestHeapProperty: random pushes pop in nondecreasing due order.
func TestHeapProperty(t *testing.T) {
	if err := quick.Check(func(dues []float64) bool {
		q := NewSharded(1)
		for i, d := range dues {
			if math.IsNaN(d) {
				d = 0
			}
			q.Push(urlFor(i), d, 0)
		}
		var popped []float64
		for q.Len() > 0 {
			e, ok := roundPop(q)
			if !ok {
				return false
			}
			popped = append(popped, e.Due)
		}
		return sort.Float64sAreSorted(popped)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func urlFor(i int) string {
	return "http://site.com/p" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}
