package daemon

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"webevolve/internal/cluster"
)

func TestParseEndpoints(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
		ok   bool
	}{
		{"", nil, true},
		{"   ", nil, true},
		{"127.0.0.1:7070", []string{"127.0.0.1:7070"}, true},
		{"a:1,b:2 , c:3", []string{"a:1", "b:2", "c:3"}, true},
		{"[::1]:7070", []string{"[::1]:7070"}, true},
		{"b:2,a:1", []string{"b:2", "a:1"}, true}, // order preserved
		{"a:1,,b:2", nil, false},                  // empty element
		{"a:1,a:1", nil, false},                   // duplicate
		{"no-port", nil, false},
		{"host:", nil, false},
		{":7070", nil, false},
	} {
		got, err := ParseEndpoints(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseEndpoints(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseEndpoints(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestParseTopology runs every combination of the three topology flags:
// the static lists combine freely, -registry stands alone, and an error
// names the flag (both flags, for a conflict).
func TestParseTopology(t *testing.T) {
	const reg, shards, st = "r:1", "a:1,b:2", "s:3"
	for _, tc := range []struct {
		registry, shards, store string
		want                    cluster.Topology
		errFlags                []string // nil: must parse
	}{
		{want: cluster.Topology{}},
		{registry: reg, want: cluster.Topology{Registry: reg}},
		{shards: shards, want: cluster.Topology{ShardServers: []string{"a:1", "b:2"}}},
		{store: st, want: cluster.Topology{StoreServer: st}},
		{shards: shards, store: st, want: cluster.Topology{ShardServers: []string{"a:1", "b:2"}, StoreServer: st}},
		{registry: reg, shards: shards, errFlags: []string{"-registry", "-shard-servers"}},
		{registry: reg, store: st, errFlags: []string{"-registry", "-store-server"}},
		{registry: reg, shards: shards, store: st, errFlags: []string{"-registry", "-shard-servers"}},
		{registry: "r:1,r:2", errFlags: []string{"-registry"}},
		{shards: "a:1,a:1", errFlags: []string{"-shard-servers"}},
		{store: "s:3,s:4", errFlags: []string{"-store-server"}},
		{store: "no-port", errFlags: []string{"-store-server"}},
	} {
		got, err := ParseTopology(tc.registry, tc.shards, tc.store)
		name := fmt.Sprintf("-registry=%q -shard-servers=%q -store-server=%q", tc.registry, tc.shards, tc.store)
		if tc.errFlags == nil {
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s = %+v, %v; want %+v", name, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s parsed to %+v; want an error naming %v", name, got, tc.errFlags)
			continue
		}
		for _, f := range tc.errFlags {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%s: error %q does not name %s", name, err, f)
			}
		}
	}
}

func TestParseEndpoint(t *testing.T) {
	if got, err := ParseEndpoint("h:1"); err != nil || got != "h:1" {
		t.Fatalf("ParseEndpoint(h:1) = %q, %v", got, err)
	}
	if _, err := ParseEndpoint("h:1,h:2"); err == nil {
		t.Fatal("ParseEndpoint accepted a two-element list")
	}
	if _, err := ParseEndpoint(""); err == nil {
		t.Fatal("ParseEndpoint accepted an empty string")
	}
}
