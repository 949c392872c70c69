package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// backends returns each Collection implementation under a fresh state.
func backends(t *testing.T) map[string]Collection {
	t.Helper()
	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Collection{
		"mem":  NewMem(),
		"disk": disk,
	}
}

func rec(url string, sum uint64) PageRecord {
	return PageRecord{
		URL: url, Checksum: sum, FetchedAt: 1.5,
		Links: []string{"http://x.com/a", "http://x.com/b"},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer c.Close()
			want := rec("http://s.com/p1", 42)
			want.Content = []byte("<html>hi</html>")
			want.Version = 7
			want.Importance = 0.9
			if err := c.Put(want); err != nil {
				t.Fatal(err)
			}
			got, ok, err := c.Get(want.URL)
			if err != nil || !ok {
				t.Fatalf("get: %v ok=%v", err, ok)
			}
			if got.URL != want.URL || got.Checksum != want.Checksum ||
				got.Version != want.Version || got.Importance != want.Importance ||
				string(got.Content) != string(want.Content) ||
				fmt.Sprint(got.Links) != fmt.Sprint(want.Links) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestValueMethods: on both backends, records put as encoded values read
// back as the records they encode, GetValue and ScanValuesFrom hand out
// values that decode to what Get and ScanFrom return, and a batch with
// one undecodable value is refused whole.
func TestValueMethods(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer c.Close()
			vc := c.(interface {
				PutValues([]Value) error
				GetValue(string) ([]byte, bool, error)
				ScanValuesFrom(string, func(string, []byte) bool) error
			})
			var vals []Value
			var want []PageRecord
			buf := make([]byte, 0, 1<<10)
			for i := 0; i < 12; i++ {
				r := rec(fmt.Sprintf("http://s.com/p%02d", i), uint64(i))
				r.Content = []byte(fmt.Sprintf("<p>%d</p>", i))
				want = append(want, r)
				start := len(buf)
				buf = AppendValue(buf, &r)
				vals = append(vals, Value{URL: r.URL, Bytes: buf[start:]})
			}
			if err := vc.PutValues(vals); err != nil {
				t.Fatal(err)
			}
			clear(buf[:cap(buf)]) // the store keeps none of the caller's bytes
			bad := []Value{{URL: "http://s.com/new", Bytes: vals[0].Bytes}, {URL: "http://s.com/bad", Bytes: []byte{recordTag, 1}}}
			if err := vc.PutValues(bad); err == nil || c.Len() != len(want) {
				t.Fatalf("a batch with a bad value: err %v, %d records after it, want an error and %d", err, c.Len(), len(want))
			}
			for _, w := range want {
				got, ok, err := c.Get(w.URL)
				val, vok, verr := vc.GetValue(w.URL)
				dec, derr := DecodeValue(w.URL, val)
				if err != nil || verr != nil || derr != nil || !ok || !vok || !sameRecord(got, w) || !sameRecord(dec, w) {
					t.Fatalf("%s: Get %+v (%v), GetValue decodes to %+v (%v, %v)", w.URL, got, err, dec, verr, derr)
				}
			}
			if _, ok, err := vc.GetValue("http://s.com/none"); ok || err != nil {
				t.Fatalf("GetValue of a missing URL: ok=%v err=%v", ok, err)
			}
			var scanned []PageRecord
			if err := vc.ScanValuesFrom(want[3].URL, func(url string, val []byte) bool {
				r, err := DecodeValue(url, bytes.Clone(val)) // val is good only until fn returns
				if err != nil {
					t.Fatal(err)
				}
				scanned = append(scanned, r)
				return len(scanned) < 5
			}); err != nil {
				t.Fatal(err)
			}
			if len(scanned) != 5 {
				t.Fatalf("scan from %s stopped after %d values, want 5", want[3].URL, len(scanned))
			}
			for i, r := range scanned {
				if !sameRecord(r, want[4+i]) {
					t.Fatalf("scan value %d decodes to %+v, want %+v", i, r, want[4+i])
				}
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer c.Close()
			_, ok, err := c.Get("http://nope.com/")
			if err != nil || ok {
				t.Fatalf("missing get: ok=%v err=%v", ok, err)
			}
		})
	}
}

func TestPutOverwrites(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer c.Close()
			url := "http://s.com/p"
			if err := c.Put(rec(url, 1)); err != nil {
				t.Fatal(err)
			}
			if err := c.Put(rec(url, 2)); err != nil {
				t.Fatal(err)
			}
			got, _, err := c.Get(url)
			if err != nil || got.Checksum != 2 {
				t.Fatalf("overwrite lost: %+v err=%v", got, err)
			}
			if c.Len() != 1 {
				t.Fatalf("len %d after overwrite", c.Len())
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer c.Close()
			if err := c.Put(rec("http://s.com/p", 1)); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete("http://s.com/p"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := c.Get("http://s.com/p"); ok {
				t.Fatal("deleted record still readable")
			}
			if c.Len() != 0 {
				t.Fatalf("len %d", c.Len())
			}
			// Deleting absent keys is a no-op.
			if err := c.Delete("http://never.com/"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEmptyURLRejected(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer c.Close()
			if err := c.Put(PageRecord{}); err == nil {
				t.Fatal("empty URL accepted")
			}
		})
	}
}

func TestURLsSortedAndScanOrder(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer c.Close()
			for _, u := range []string{"http://c.com/", "http://a.com/", "http://b.com/"} {
				if err := c.Put(rec(u, 1)); err != nil {
					t.Fatal(err)
				}
			}
			urls := c.URLs()
			if fmt.Sprint(urls) != "[http://a.com/ http://b.com/ http://c.com/]" {
				t.Fatalf("URLs %v", urls)
			}
			var seen []string
			if err := c.Scan(func(r PageRecord) bool {
				seen = append(seen, r.URL)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(seen) != fmt.Sprint(urls) {
				t.Fatalf("scan order %v", seen)
			}
		})
	}
}

func TestScanEarlyStop(t *testing.T) {
	for name, c := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer c.Close()
			for i := 0; i < 5; i++ {
				if err := c.Put(rec(fmt.Sprintf("http://s.com/p%d", i), 1)); err != nil {
					t.Fatal(err)
				}
			}
			n := 0
			if err := c.Scan(func(PageRecord) bool { n++; return n < 2 }); err != nil {
				t.Fatal(err)
			}
			if n != 2 {
				t.Fatalf("visited %d records", n)
			}
		})
	}
}

func TestClosedErrors(t *testing.T) {
	m := NewMem()
	m.Close()
	if err := m.Put(rec("http://a.com/", 1)); err != ErrClosed {
		t.Fatalf("put on closed: %v", err)
	}
	if _, _, err := m.Get("x"); err != ErrClosed {
		t.Fatalf("get on closed: %v", err)
	}
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if err := d.Put(rec("http://a.com/", 1)); err != ErrClosed {
		t.Fatalf("disk put on closed: %v", err)
	}
}

func TestDiskReopenReplays(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := d.Put(rec(fmt.Sprintf("http://s.com/p%02d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete("http://s.com/p05"); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(rec("http://s.com/p07", 777)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 19 {
		t.Fatalf("replayed len %d, want 19", d2.Len())
	}
	if _, ok, _ := d2.Get("http://s.com/p05"); ok {
		t.Fatal("tombstone not replayed")
	}
	got, ok, err := d2.Get("http://s.com/p07")
	if err != nil || !ok || got.Checksum != 777 {
		t.Fatalf("overwrite not replayed: %+v ok=%v err=%v", got, ok, err)
	}
}

func TestDiskTornFinalFrameIgnored(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(rec("http://s.com/good", 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: add garbage half-frame bytes.
	seg := filepath.Join(dir, "segment-000001.log")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer d2.Close()
	if d2.Len() != 1 {
		t.Fatalf("len %d after torn frame", d2.Len())
	}
	if _, ok, _ := d2.Get("http://s.com/good"); !ok {
		t.Fatal("good record lost")
	}
	// The store must still accept writes after recovery.
	if err := d2.Put(rec("http://s.com/new", 2)); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCompaction(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Generate lots of garbage: repeated overwrites of few keys.
	for round := 0; round < 30; round++ {
		for i := 0; i < 5; i++ {
			if err := d.Put(rec(fmt.Sprintf("http://s.com/p%d", i), uint64(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.GarbageRatio() != 0 {
		t.Fatalf("garbage ratio %v after compaction", d.GarbageRatio())
	}
	if d.Len() != 5 {
		t.Fatalf("len %d after compaction", d.Len())
	}
	for i := 0; i < 5; i++ {
		got, ok, err := d.Get(fmt.Sprintf("http://s.com/p%d", i))
		if err != nil || !ok || got.Checksum != 29 {
			t.Fatalf("post-compaction read p%d: %+v ok=%v err=%v", i, got, ok, err)
		}
	}
}

func TestDiskAutoCompactionTriggers(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for round := 0; round < 100; round++ {
		if err := d.Put(rec("http://s.com/only", uint64(round))); err != nil {
			t.Fatal(err)
		}
	}
	if d.GarbageRatio() > 10 {
		t.Fatalf("auto-compaction never ran: ratio %v", d.GarbageRatio())
	}
}

// TestModelCheck drives both backends with seeded random histories —
// put, overwrite, batch, delete, compact and reopen (disk) interleaved
// with ordered reads — and checks every read against the plainest
// possible oracle: a map, and sort.Strings over its keys. The ordered
// index is lazy, so the interesting histories are the ones where reads
// land between arbitrary runs of key-set changes.
func TestModelCheck(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", backend, seed), func(t *testing.T) {
				modelCheck(t, backend == "disk", seed)
			})
		}
	}
}

func modelCheck(t *testing.T, disk bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	var c Collection = NewMem()
	if disk {
		d, err := OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		c = d
	}
	defer func() { c.Close() }()
	model := make(map[string]uint64)
	// A small key space, so deletes and re-adds of the same key between
	// two ordered reads are common; seeds differ in how many keys.
	key := func() string { return fmt.Sprintf("http://m.com/p%03d", rng.Intn(8+int(seed)*40)) }
	sorted := func(after string) []string {
		var keys []string
		for u := range model {
			if u > after {
				keys = append(keys, u)
			}
		}
		sort.Strings(keys)
		return keys
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(100); {
		case op < 35:
			r := rec(key(), rng.Uint64())
			must(c.Put(r))
			model[r.URL] = r.Checksum
		case op < 45:
			var batch []PageRecord
			for i := rng.Intn(40); i >= 0; i-- {
				r := rec(key(), rng.Uint64())
				batch = append(batch, r)
				model[r.URL] = r.Checksum
			}
			must(c.PutBatch(batch))
		case op < 70:
			u := key()
			must(c.Delete(u))
			delete(model, u)
		case op < 80: // one page of a scan from a random cursor, stored or not
			after, limit := "", 1+rng.Intn(20)
			if rng.Intn(4) > 0 {
				after = key()
			}
			want := sorted(after)
			want = want[:min(limit, len(want))]
			var got []string
			must(c.ScanFrom(after, func(r PageRecord) bool {
				if r.Checksum != model[r.URL] {
					t.Fatalf("step %d: scan read %s checksum %d, model %d", step, r.URL, r.Checksum, model[r.URL])
				}
				got = append(got, r.URL)
				return len(got) < limit
			}))
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: ScanFrom(%q) limit %d = %v, want %v", step, after, limit, got, want)
			}
		case op < 88:
			after := key()
			var got []string
			c.(interface {
				URLsFrom(string, func(string) bool)
			}).URLsFrom(after, func(u string) bool { got = append(got, u); return true })
			if want := sorted(after); !slices.Equal(got, want) {
				t.Fatalf("step %d: URLsFrom(%q) = %v, want %v", step, after, got, want)
			}
		case op < 94:
			if got, want := c.URLs(), sorted(""); !slices.Equal(got, want) || c.Len() != len(want) {
				t.Fatalf("step %d: URLs = %v (Len %d), want %v", step, got, c.Len(), want)
			}
		case op < 97:
			if d, ok := c.(*Disk); ok {
				must(d.Compact())
			}
		default:
			if disk {
				must(c.Close())
				d, err := OpenDisk(dir)
				must(err)
				c = d
			}
		}
	}
	for u, sum := range model {
		if got, ok, err := c.Get(u); err != nil || !ok || got.Checksum != sum {
			t.Fatalf("final Get(%s) = %+v %v %v, model %d", u, got, ok, err, sum)
		}
	}
	n := 0
	must(c.Scan(func(PageRecord) bool { n++; return true }))
	if n != len(model) {
		t.Fatalf("final scan saw %d records, model holds %d", n, len(model))
	}
}

func TestShadowedSwapPublishesShadow(t *testing.T) {
	s := NewShadowedMem()
	defer s.Close()
	if err := s.Shadow().Put(rec("http://a.com/", 1)); err != nil {
		t.Fatal(err)
	}
	// Invisible before swap.
	if _, ok, _ := s.Current().Get("http://a.com/"); ok {
		t.Fatal("shadow write visible before swap")
	}
	n, err := s.Swap()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("swap published %d pages", n)
	}
	if _, ok, _ := s.Current().Get("http://a.com/"); !ok {
		t.Fatal("swap did not publish")
	}
	// New shadow is empty.
	if s.Shadow().Len() != 0 {
		t.Fatal("fresh shadow not empty")
	}
	if s.Swaps() != 1 {
		t.Fatalf("swaps %d", s.Swaps())
	}
}

func TestShadowedOldCurrentClosedOnSwap(t *testing.T) {
	s := NewShadowedMem()
	old := s.Current()
	if _, err := s.Swap(); err != nil {
		t.Fatal(err)
	}
	if err := old.Put(rec("http://x.com/", 1)); err != ErrClosed {
		t.Fatalf("old current not closed: %v", err)
	}
}

// TestShadowedShadowTakesBatchesAndDeletes: batch writes and deletes
// made on the shadow reach readers, all of them, at the next swap.
func TestShadowedShadowTakesBatchesAndDeletes(t *testing.T) {
	s := NewShadowedMem()
	defer s.Close()
	sh := s.Shadow()
	if err := sh.PutBatch([]PageRecord{rec("http://c.com/", 3), rec("http://a.com/", 1), rec("http://b.com/", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Delete("http://b.com/"); err != nil {
		t.Fatal(err)
	}
	if got := s.Current().URLs(); len(got) != 0 {
		t.Fatalf("readers see %v before the swap", got)
	}
	if n, err := s.Swap(); err != nil || n != 2 {
		t.Fatalf("swap published %d pages: %v", n, err)
	}
	if got, want := s.Current().URLs(), []string{"http://a.com/", "http://c.com/"}; !slices.Equal(got, want) {
		t.Fatalf("published URLs %v, want %v", got, want)
	}
}

// TestShadowedRetiredCollectionRefusesEveryCall: a collection retired
// by a swap, or closed by its holder, answers every call started after
// that as closed and empty, and closing it again is a no-op.
func TestShadowedRetiredCollectionRefusesEveryCall(t *testing.T) {
	s := NewShadowedMem()
	defer s.Close()
	if err := s.Current().Put(rec("http://a.com/", 1)); err != nil {
		t.Fatal(err)
	}
	swapped := s.Current()
	if _, err := s.Swap(); err != nil {
		t.Fatal(err)
	}
	closed := s.Shadow()
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]Collection{"swapped": swapped, "closed": closed} {
		if err := c.PutBatch([]PageRecord{rec("http://b.com/", 2)}); err != ErrClosed {
			t.Errorf("%s: PutBatch = %v", name, err)
		}
		if err := c.Delete("http://a.com/"); err != ErrClosed {
			t.Errorf("%s: Delete = %v", name, err)
		}
		if _, _, err := c.Get("http://a.com/"); err != ErrClosed {
			t.Errorf("%s: Get = %v", name, err)
		}
		if err := c.Scan(func(PageRecord) bool { return true }); err != ErrClosed {
			t.Errorf("%s: Scan = %v", name, err)
		}
		if n, urls := c.Len(), c.URLs(); n != 0 || urls != nil {
			t.Errorf("%s: Len %d, URLs %v", name, n, urls)
		}
		if err := c.Close(); err != nil {
			t.Errorf("%s: second Close = %v", name, err)
		}
	}
}

func TestNewShadowedValidation(t *testing.T) {
	if _, err := NewShadowed(nil, nil); err == nil {
		t.Fatal("nil constructor accepted")
	}
	sh, err := NewShadowed(nil, func() (Collection, error) { return NewMem(), nil })
	if err != nil {
		t.Fatal(err)
	}
	if sh.Current() == nil || sh.Shadow() == nil {
		t.Fatal("nil collections")
	}
}

func TestShadowedWithDiskBackend(t *testing.T) {
	dir := t.TempDir()
	gen := 0
	newShadow := func() (Collection, error) {
		gen++
		return OpenDisk(filepath.Join(dir, fmt.Sprintf("gen%d", gen)))
	}
	s, err := NewShadowed(nil, newShadow)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Shadow().Put(rec("http://d.com/", 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Current().Get("http://d.com/")
	if err != nil || !ok || got.Checksum != 9 {
		t.Fatalf("disk shadow swap: %+v ok=%v err=%v", got, ok, err)
	}
}
