package urlid

import "testing"

func TestTableInternsDenseAndStable(t *testing.T) {
	var tab Table
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
