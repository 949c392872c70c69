package cluster

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"webevolve/internal/frontier"
	"webevolve/internal/registry"
)

// tcpShardServer serves shards in-process on a loopback port for the
// rest of the test.
func tcpShardServer(t *testing.T, shards int) string {
	t.Helper()
	srv := NewShardServer(frontier.NewSharded(shards))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// tcpStoreServer serves in-memory collections on a loopback port for
// the rest of the test.
func tcpStoreServer(t *testing.T) string {
	t.Helper()
	srv := NewMemStoreServer()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// countingRegistry serves reg over HTTP and counts membership reads.
func countingRegistry(t *testing.T, reg *registry.Server) (string, *atomic.Int64) {
	t.Helper()
	reads := new(atomic.Int64)
	h := reg.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/membership" {
			reads.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, reads
}

func closePlanes(shards *RemoteShards, st *RemoteStore) {
	if shards != nil {
		shards.Close()
	}
	if st != nil {
		st.Close()
	}
}

// TestTopologyStaticPlanes: static lists dial exactly the planes they
// name, and the shard ring's identities are the list positions.
func TestTopologyStaticPlanes(t *testing.T) {
	a, b, s := tcpShardServer(t, 2), tcpShardServer(t, 3), tcpStoreServer(t)
	for _, tc := range []struct {
		name      string
		topo      Topology
		wantRing  []string
		wantStore bool
	}{
		{name: "none", topo: Topology{}},
		{name: "shards", topo: Topology{ShardServers: []string{a, b}}, wantRing: []string{"0000", "0001"}},
		{name: "store", topo: Topology{StoreServer: s}, wantStore: true},
		{name: "both", topo: Topology{ShardServers: []string{b}, StoreServer: s}, wantRing: []string{"0000"}, wantStore: true},
	} {
		shards, st, err := tc.topo.Dial(Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := shards != nil; got != (tc.wantRing != nil) {
			t.Errorf("%s: shard plane dialed = %v", tc.name, got)
		} else if shards != nil && !reflect.DeepEqual(shards.t().ring.Members(), tc.wantRing) {
			t.Errorf("%s: ring members %v, want %v", tc.name, shards.t().ring.Members(), tc.wantRing)
		}
		if got := st != nil; got != tc.wantStore {
			t.Errorf("%s: store plane dialed = %v", tc.name, got)
		}
		closePlanes(shards, st)
	}
}

// TestTopologyRegistryOneRead: a registry topology resolves both planes
// from a single membership read; without store members the store plane
// stays local.
func TestTopologyRegistryOneRead(t *testing.T) {
	for _, withStore := range []bool{true, false} {
		reg := registry.NewServer(0)
		if _, err := reg.Register(registry.Member{Kind: registry.KindShard, Addr: tcpShardServer(t, 4), Shards: 4}); err != nil {
			t.Fatal(err)
		}
		if withStore {
			if _, err := reg.Register(registry.Member{Kind: registry.KindStore, Addr: tcpStoreServer(t)}); err != nil {
				t.Fatal(err)
			}
		}
		url, reads := countingRegistry(t, reg)
		shards, st, err := Topology{Registry: url}.Dial(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if shards == nil || (st != nil) != withStore {
			t.Fatalf("store members %v: planes shards=%v store=%v", withStore, shards != nil, st != nil)
		}
		if n := reads.Load(); n != 1 {
			t.Fatalf("store members %v: %d membership reads to dial, want 1", withStore, n)
		}
		closePlanes(shards, st)
	}
}

// TestTopologyRegistryUnavailable: a registry answering 503 fails the
// dial — even when the body decodes as a membership (here one naming a
// live shard server and no store), which read as such would leave the
// store plane on local state.
func TestTopologyRegistryUnavailable(t *testing.T) {
	body := `{"epoch":1,"members":[{"kind":"shard","addr":"` + tcpShardServer(t, 2) + `","shards":2}]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(body))
	}))
	defer ts.Close()
	shards, st, err := Topology{Registry: ts.URL}.Dial(Options{})
	if err == nil || shards != nil || st != nil {
		closePlanes(shards, st)
		t.Fatalf("dial over an unavailable registry: shards=%v store=%v err=%v", shards != nil, st != nil, err)
	}
}
