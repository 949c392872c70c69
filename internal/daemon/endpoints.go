package daemon

import (
	"fmt"
	"net"
	"strings"

	"webevolve/internal/cluster"
)

// ParseEndpoints parses a comma-separated endpoint list as daemons and
// tools accept it on their flags (-shard-servers, -store-server,
// -registry): elements are trimmed, must be host:port, and duplicates
// are rejected (a doubled shard server would silently skew routing).
// Order is preserved — for a static -shard-servers list the order IS
// the URL routing, so every client must pass the same order (a
// registry's members route by address, whatever order they joined
// in). An empty string parses to nil (the flag was not set).
func ParseEndpoints(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	parts := strings.Split(list, ",")
	out := make([]string, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("empty endpoint in %q", list)
		}
		host, port, err := net.SplitHostPort(p)
		if err != nil {
			return nil, fmt.Errorf("endpoint %q: %v", p, err)
		}
		if host == "" || port == "" {
			return nil, fmt.Errorf("endpoint %q: missing host or port", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("duplicate endpoint %q", p)
		}
		seen[p] = true
		out = append(out, p)
	}
	return out, nil
}

// ParseTopology parses the topology flags the cluster clients share:
// -registry, or the static lists -shard-servers and -store-server,
// never both forms (a command given both would honour one and silently
// drop the other). Empty values are unset flags; all empty is the zero
// Topology, a local crawl. Every error names its flag.
func ParseTopology(registry, shardServers, storeServer string) (cluster.Topology, error) {
	var none cluster.Topology
	if registry != "" {
		for _, f := range [...]struct{ flag, val string }{{"-shard-servers", shardServers}, {"-store-server", storeServer}} {
			if f.val != "" {
				return none, fmt.Errorf("-registry and %s are mutually exclusive: the registry names the whole cluster", f.flag)
			}
		}
	}
	var t cluster.Topology
	var err error
	if registry != "" {
		if t.Registry, err = ParseEndpoint(registry); err != nil {
			return none, fmt.Errorf("-registry: %v", err)
		}
	}
	if t.ShardServers, err = ParseEndpoints(shardServers); err != nil {
		return none, fmt.Errorf("-shard-servers: %v", err)
	}
	if storeServer != "" {
		if t.StoreServer, err = ParseEndpoint(storeServer); err != nil {
			return none, fmt.Errorf("-store-server: %v", err)
		}
	}
	return t, nil
}

// ParseEndpoint parses a single host:port endpoint (one-element list).
func ParseEndpoint(s string) (string, error) {
	eps, err := ParseEndpoints(s)
	if err != nil {
		return "", err
	}
	if len(eps) != 1 {
		return "", fmt.Errorf("want one endpoint, got %d in %q", len(eps), s)
	}
	return eps[0], nil
}
