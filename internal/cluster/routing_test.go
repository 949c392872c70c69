package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webevolve/internal/frontier"
)

// staticRouting renders the global shard RemoteShards.ShardOf assigns
// each of 1,000 fixed URLs, over static clusters of one, two and three
// servers with unequal shard counts: one line per cluster.
func staticRouting(t *testing.T) string {
	t.Helper()
	tlds := []string{"com", "edu", "org", "gov", "net"}
	var b strings.Builder
	for _, counts := range [][]int{{5}, {3, 8}, {2, 7, 4}} {
		servers := make([]*ShardServer, len(counts))
		for i, n := range counts {
			servers[i] = NewShardServer(frontier.NewSharded(n))
			defer servers[i].Close()
		}
		rs, err := Loopback(servers, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		fmt.Fprintf(&b, "shards %v:", counts)
		for i := 0; i < 1000; i++ {
			url := fmt.Sprintf("http://www.site%03d.%s/p/%d", i*37%400, tlds[i%len(tlds)], i)
			fmt.Fprintf(&b, " %d", rs.ShardOf(url))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestStaticRoutingGolden: testdata/static_routing.golden was written
// by the last build that dialed static lists without a membership
// source (commit 6901bac). A static list's ring identities must stay
// its list positions, so a WAL-backed static cluster written by that
// build routes every URL to the same shard after an upgrade.
func TestStaticRoutingGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "static_routing.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := staticRouting(t); got != string(want) {
		t.Fatalf("static routing drifted from testdata/static_routing.golden\ngot:\n%swant:\n%s", got, want)
	}
}
