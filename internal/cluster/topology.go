package cluster

import (
	"errors"
	"fmt"

	"webevolve/internal/registry"
)

// Topology names a cluster the way the commands' flags do: a registry
// to read the membership from (-registry), or static endpoint lists
// that form a fixed membership (-shard-servers, in routing order, and
// -store-server). The two forms are exclusive — daemon.ParseTopology
// refuses both at once. The zero Topology names no cluster: it dials
// nothing and leaves both planes local.
type Topology struct {
	Registry     string
	ShardServers []string
	StoreServer  string
}

// Dial resolves t into its two planes from one membership read: the
// shard client when the membership has shard members (a registry must
// have some), and the store client when it has store members. A plane
// without members comes back nil and stays local. A registry that
// cannot be read is an error, never an empty cluster: falling back to
// local state would split the collection.
func (t Topology) Dial(opts Options) (*RemoteShards, *RemoteStore, error) {
	var src MembershipSource
	dialFor := func(m registry.Member) Dialer { return tcpDialer(m.Addr) }
	if t.Registry != "" {
		src = registry.NewClient(t.Registry)
	} else {
		var st Dialer
		if t.StoreServer != "" {
			st = tcpDialer(t.StoreServer)
		}
		fixed := staticMembership(tcpDialers(t.ShardServers), st)
		src, dialFor = fixed, fixed.dialer
	}
	ms, err := src.Membership()
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: membership: %w", err)
	}
	var shards *RemoteShards
	if t.Registry != "" || len(ms.Shard()) > 0 {
		if shards, err = dialShards(src, ms, dialFor, opts); err != nil {
			return nil, nil, err
		}
	}
	var st *RemoteStore
	if members := ms.Store(); len(members) > 0 {
		if st, err = dialStores(members, dialFor, opts); err != nil {
			if shards != nil {
				shards.Close()
			}
			return nil, nil, err
		}
	}
	return shards, st, nil
}

// staticStore is a static list's store member: with one store server
// there is nothing to pin collections across, so its name is only a
// label.
var staticStore = registry.Member{Kind: registry.KindStore, Addr: "store server"}

// fixedMembership is a static endpoint list as a MembershipSource: one
// epoch (0) that never moves, so there is no migration to complete.
// Member Addr fields are identities, not addresses; dials maps each to
// its server.
type fixedMembership struct {
	ms    registry.Membership
	dials map[string]Dialer
}

// staticMembership builds the fixed membership of static lists. Shard
// members are named by list position ("0000", "0001", ...), names that
// sort in list order: the ring identities, and with them the URL
// routing, are the list order, so every client of one cluster must
// list the servers in the same order. store, when non-nil, is
// staticStore.
func staticMembership(shards []Dialer, store Dialer) *fixedMembership {
	f := &fixedMembership{dials: map[string]Dialer{}}
	add := func(m registry.Member, d Dialer) {
		f.ms.Members = append(f.ms.Members, m)
		f.dials[m.Addr] = d
	}
	for i, d := range shards {
		add(registry.Member{Kind: registry.KindShard, Addr: fmt.Sprintf("%04d", i)}, d)
	}
	if store != nil {
		add(staticStore, store)
	}
	return f
}

func (f *fixedMembership) Membership() (registry.Membership, error) { return f.ms, nil }

func (f *fixedMembership) Complete(uint64) error {
	return errors.New("cluster: a static membership has no migration to complete")
}

func (f *fixedMembership) dialer(m registry.Member) Dialer { return f.dials[m.Addr] }
