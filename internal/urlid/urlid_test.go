package urlid

import (
	"fmt"
	"sync"
	"testing"
)

func TestTableInternsDenseAndStable(t *testing.T) {
	var tab Table // the zero table is ready
	if _, ok := tab.Lookup("a"); ok {
		t.Fatal("zero table not empty")
	}
	for i, u := range []string{"a", "b", "a", "c", "b"} {
		id, isNew := tab.Intern(u)
		want := map[string]int32{"a": 0, "b": 1, "c": 2}[u]
		if id != want || isNew != (i < 2 || i == 3) {
			t.Fatalf("Intern(%q) = %d, %v at step %d", u, id, isNew, i)
		}
	}
	for _, u := range []string{"a", "b", "c"} {
		id, ok := tab.Lookup(u)
		if !ok || tab.URL(id) != u {
			t.Fatalf("Lookup(%q) = %d, %v; URL gives %q", u, id, ok, tab.URL(id))
		}
	}
}

// TestLookupMintsNothing: a Lookup of a URL the table has not seen
// reports it absent and hands out no ID, so the next Intern still gets
// the next one.
func TestLookupMintsNothing(t *testing.T) {
	var tab Table
	tab.Intern("a")
	if id, ok := tab.Lookup("b"); ok {
		t.Fatalf("Lookup(b) = %d before b was interned", id)
	}
	if n := tab.Len(); n != 1 {
		t.Fatalf("Len %d after a Lookup, want 1", n)
	}
	if id, isNew := tab.Intern("b"); id != 1 || !isNew {
		t.Fatalf("Intern(b) = %d, %v; want 1, true", id, isNew)
	}
}

// TestConcurrentInternBesideLockFreeReads interns from several
// goroutines while readers walk every published ID through URL, which
// takes no lock: under -race this checks that a published ID's URL is
// safely visible, across chunk boundaries, and every goroutine checks
// that the table stays a bijection.
func TestConcurrentInternBesideLockFreeReads(t *testing.T) {
	const writers, perWriter, readers = 4, 3 * chunkSize / 2, 2
	tab := new(Table)
	url := func(i int) string { return fmt.Sprintf("http://s%d.com/p%d", i%7, i) }
	done := make(chan struct{})
	var wg, rg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Writers overlap: each interns its own range and its
			// neighbour's, so half the calls find the URL already there.
			for i := 0; i < perWriter; i++ {
				u := url((w*perWriter/2 + i) % (writers * perWriter / 2))
				id, _ := tab.Intern(u)
				if got := tab.URL(id); got != u {
					errs <- fmt.Errorf("Intern(%q) = %d, which names %q", u, id, got)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := tab.Len()
				for id := int32(0); id < int32(n); id++ {
					if tab.URL(id) == "" {
						errs <- fmt.Errorf("published ID %d of %d has no URL", id, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := tab.Len(); n != writers*perWriter/2 {
		t.Fatalf("%d IDs for %d distinct URLs", n, writers*perWriter/2)
	}
	seen := make(map[string]bool)
	for id := int32(0); id < int32(tab.Len()); id++ {
		u := tab.URL(id)
		if got, ok := tab.Lookup(u); !ok || got != id || seen[u] {
			t.Fatalf("ID %d names %q, which looks up as %d, %v (seen before: %v)", id, u, got, ok, seen[u])
		}
		seen[u] = true
	}
}
