package cluster_test

import (
	"testing"

	"webevolve/internal/cluster"
	"webevolve/internal/core"
	"webevolve/internal/store"
)

// loopbackStore builds an in-process store server (memory- or
// disk-backed) and a RemoteStore client over net.Pipe.
func loopbackStore(t testing.TB, dir string) *cluster.RemoteStore {
	t.Helper()
	var srv *cluster.StoreServer
	if dir == "" {
		srv = cluster.NewMemStoreServer()
	} else {
		srv = cluster.NewDiskStoreServer(dir)
	}
	rs, err := cluster.LoopbackStore(srv, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rs.Close()
		srv.Close()
	})
	return rs
}

// remoteShadowed is the crawler's collection pair on the store servers.
func remoteShadowed(t testing.TB, rs *cluster.RemoteStore) *store.Shadowed {
	t.Helper()
	sh, err := rs.Shadowed()
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestRemoteStoreMountReclaimsStaleGens: a crawler that died before
// closing its pair leaves its shadow generations on a durable store
// server; the next pair built on that server must reclaim them (or
// its "fresh" collection pair silently starts with the predecessor's
// pages) while leaving unrelated collections untouched.
func TestRemoteStoreMountReclaimsStaleGens(t *testing.T) {
	dir := t.TempDir()
	srv := cluster.NewDiskStoreServer(dir)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	// The "crashed predecessor": gens with data, plus an unrelated
	// persistent collection.
	seed, err := cluster.DialStoreTCP(addr, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"gen-1", "gen-7"} {
		if err := seed.Collection(n).Put(store.PageRecord{URL: "http://stale.com/", Checksum: 9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Collection("pages").Put(store.PageRecord{URL: "http://keep.com/", Checksum: 1}); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	rs, err := cluster.DialStoreTCP(addr, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh := remoteShadowed(t, rs)
	w, f := testWeb(t, 5)
	c, err := core.NewWithStore(baseConfig(w), f, sh)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Collection().Len(); n != 0 {
		t.Fatalf("fresh crawler mounted %d stale pages", n)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	rs.Close()

	check, err := cluster.DialStoreTCP(addr, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { check.Close() })
	names, err := check.ListCollections()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n != "pages" {
			t.Fatalf("stale or leaked collection %q after mount+close (have %v)", n, names)
		}
	}
	if got, ok, err := check.Collection("pages").Get("http://keep.com/"); err != nil || !ok || got.Checksum != 1 {
		t.Fatalf("unrelated collection disturbed: %+v ok=%v err=%v", got, ok, err)
	}
}
