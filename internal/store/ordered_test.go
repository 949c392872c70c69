package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortedKeysUnreadChurn: key-set changes nobody reads in order must
// not pile up — the notes stay within the sorted set's size plus the
// slack — and the fold that bound forces is as right as a read's.
func TestSortedKeysUnreadChurn(t *testing.T) {
	m := make(map[string]bool)
	k := sortedKeys{live: func(key string) bool { return m[key] }}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		key := fmt.Sprintf("k%04d", rng.Intn(3000))
		if m[key] {
			delete(m, key)
		} else {
			m[key] = true
		}
		k.touch(key)
		if len(k.touched) > len(k.sorted)+foldSlack {
			t.Fatalf("step %d: %d notes pending over %d sorted keys", i, len(k.touched), len(k.sorted))
		}
	}
	if len(k.sorted) == 0 {
		t.Fatal("no fold ever ran from touch")
	}
	var want []string
	for key := range m {
		want = append(want, key)
	}
	sort.Strings(want)
	before := k.sorted
	if got := k.from(""); !slices.Equal(got, want) {
		t.Fatalf("from(\"\") has %d keys, want %d", len(got), len(want))
	}
	if got := k.from(want[10]); !slices.Equal(got, want[11:]) {
		t.Fatalf("from(%q) starts at %q, want %q", want[10], got[0], want[11])
	}
	// A published slice is never written again: a reader walking it
	// outside the lock sees the snapshot it took.
	snapshot := slices.Clone(before)
	delete(m, want[0])
	k.touch(want[0])
	k.from("")
	if !slices.Equal(before, snapshot) {
		t.Fatal("a fold wrote into the slice it had published")
	}
}
