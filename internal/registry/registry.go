// Package registry implements the cluster membership plane: a small
// HTTP/JSON service where shardd and storerd instances register with
// TTL'd heartbeat leases, and crawl clients read a monotonically
// versioned membership epoch to drive consistent-hash routing and live
// shard migration (internal/cluster).
//
// Membership changes to the *store* plane apply immediately — store
// collections are pinned to a member at open time, nothing moves. The
// *shard* plane is different: frontier entries must migrate before the
// routing may change, so shard joins and leaves land in a *pending*
// member set first. The crawl client observes the pending set, exports
// the moved partitions from the old owners, imports them into the new
// ones, and then calls Complete with the pending epoch; only that flip
// makes the pending set active and bumps the membership epoch. Any
// further pending-set change bumps the pending epoch, so a Complete
// computed against a stale pending set is rejected rather than
// committing a half-migrated routing.
//
// Leases are expired lazily on every request. A member whose lease
// expires is force-removed from both the active and pending sets: it
// can no longer serve exports, so there is nothing to wait for. For a
// shard member this can lose the entries it held — the WAL brings them
// back when the member restarts, re-registers and a join migration
// pulls them over; until then the crawl sees a smaller frontier.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Member kinds.
const (
	KindShard = "shard"
	KindStore = "store"
)

// DefaultTTL is the heartbeat lease duration when the server is built
// with ttl <= 0. Daemons heartbeat at a third of the TTL.
const DefaultTTL = 10 * time.Second

// Member is one registered daemon instance.
type Member struct {
	Kind   string `json:"kind"` // KindShard or KindStore
	Addr   string `json:"addr"` // wire-protocol host:port, also the member's identity
	BootID uint64 `json:"boot_id,omitempty"`
	Shards int    `json:"shards,omitempty"` // shard capacity (shard kind only)
}

// Membership is the registry's versioned view of the cluster.
type Membership struct {
	// Epoch is the active membership version; it bumps on every change
	// to the active member set (store changes, completed migrations,
	// lease expiries).
	Epoch uint64 `json:"epoch"`
	// Members is the active set, sorted by address.
	Members []Member `json:"members"`
	// Migrating reports whether a shard migration is pending; Pending
	// and PendingEpoch are meaningful only when it is true.
	Migrating bool `json:"migrating,omitempty"`
	// PendingEpoch versions the pending shard set; pass it to Complete
	// to flip the migration it was read with.
	PendingEpoch uint64 `json:"pending_epoch,omitempty"`
	// Pending is the target shard member set, sorted by address.
	Pending []Member `json:"pending,omitempty"`
}

// Shard returns the active shard members.
func (ms Membership) Shard() []Member { return membersOfKind(ms.Members, KindShard) }

// Store returns the active store members.
func (ms Membership) Store() []Member { return membersOfKind(ms.Members, KindStore) }

func membersOfKind(members []Member, kind string) []Member {
	var out []Member
	for _, m := range members {
		if m.Kind == kind {
			out = append(out, m)
		}
	}
	return out
}

// HasAddr reports whether addr is in the active member set.
func (ms Membership) HasAddr(addr string) bool {
	for _, m := range ms.Members {
		if m.Addr == addr {
			return true
		}
	}
	return false
}

// ErrStaleEpoch is returned by Complete when the pending epoch it was
// called with no longer matches (the pending set changed, or no
// migration is pending). The caller should re-read the membership and
// redo its migration plan.
var ErrStaleEpoch = errors.New("registry: stale pending epoch")

// ErrUnknownMember is returned by Heartbeat for an address without a
// live lease; the member should re-register.
var ErrUnknownMember = errors.New("registry: unknown member")

// Server is the registry state machine plus its HTTP handler. All
// methods are safe for concurrent use.
type Server struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time
	ver     uint64            // bumps on every state change
	epoch   uint64            // ver at the last active-set change
	pendEp  uint64            // ver at the last pending-set change
	shard   map[string]Member // active shard members by addr
	store   map[string]Member // active store members by addr
	pending map[string]Member // target shard set; nil = no migration pending
	lease   map[string]time.Time
}

// NewServer builds a registry with the given lease TTL (<= 0 means
// DefaultTTL).
func NewServer(ttl time.Duration) *Server {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Server{
		ttl:   ttl,
		now:   time.Now,
		shard: map[string]Member{},
		store: map[string]Member{},
		lease: map[string]time.Time{},
	}
}

func (s *Server) bumpActiveLocked()  { s.ver++; s.epoch = s.ver }
func (s *Server) bumpPendingLocked() { s.ver++; s.pendEp = s.ver }

func (s *Server) expireLocked() {
	now := s.now()
	for addr, dl := range s.lease {
		if now.Before(dl) {
			continue
		}
		delete(s.lease, addr)
		if _, ok := s.shard[addr]; ok {
			delete(s.shard, addr)
			s.bumpActiveLocked()
		}
		if _, ok := s.store[addr]; ok {
			delete(s.store, addr)
			s.bumpActiveLocked()
		}
		if s.pending != nil {
			if _, ok := s.pending[addr]; ok {
				delete(s.pending, addr)
				s.bumpPendingLocked()
			}
		}
	}
	s.dropNoopPendingLocked()
}

// dropNoopPendingLocked retires a pending set that equals the active
// shard set — there is nothing left to migrate.
func (s *Server) dropNoopPendingLocked() {
	if s.pending == nil || len(s.pending) != len(s.shard) {
		return
	}
	for addr, m := range s.pending {
		if cur, ok := s.shard[addr]; !ok || cur != m {
			return
		}
	}
	s.pending = nil
	s.ver++
	s.pendEp = s.ver
}

func (s *Server) membershipLocked() Membership {
	ms := Membership{Epoch: s.epoch}
	for _, m := range s.shard {
		ms.Members = append(ms.Members, m)
	}
	for _, m := range s.store {
		ms.Members = append(ms.Members, m)
	}
	sort.Slice(ms.Members, func(i, j int) bool { return ms.Members[i].Addr < ms.Members[j].Addr })
	if s.pending != nil {
		ms.Migrating = true
		ms.PendingEpoch = s.pendEp
		ms.Pending = []Member{} // non-nil even when empty: "migrate to nothing"
		for _, m := range s.pending {
			ms.Pending = append(ms.Pending, m)
		}
		sort.Slice(ms.Pending, func(i, j int) bool { return ms.Pending[i].Addr < ms.Pending[j].Addr })
	}
	return ms
}

// Register adds or refreshes a member and renews its lease. A store
// member becomes active immediately. A shard member becomes active
// immediately only when the active shard set is empty (nothing can
// move); otherwise it lands in the pending set and activates when the
// migrating client calls Complete.
func (s *Server) Register(m Member) (Membership, error) {
	if m.Addr == "" {
		return Membership{}, errors.New("registry: register: empty addr")
	}
	if m.Kind != KindShard && m.Kind != KindStore {
		return Membership{}, fmt.Errorf("registry: register: unknown kind %q", m.Kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	s.lease[m.Addr] = s.now().Add(s.ttl)
	switch m.Kind {
	case KindStore:
		if cur, ok := s.store[m.Addr]; !ok || cur != m {
			s.store[m.Addr] = m
			s.bumpActiveLocked()
		}
	case KindShard:
		if cur, ok := s.shard[m.Addr]; ok {
			// Already active: a restart (new boot ID) updates the record
			// in place — the member's partitions did not move.
			if cur != m {
				s.shard[m.Addr] = m
				s.bumpActiveLocked()
			}
			if s.pending != nil {
				if pcur, pok := s.pending[m.Addr]; pok && pcur != m {
					s.pending[m.Addr] = m
					s.bumpPendingLocked()
				}
			}
		} else if s.pending == nil && len(s.shard) == 0 {
			s.shard[m.Addr] = m
			s.bumpActiveLocked()
		} else {
			if s.pending == nil {
				s.pending = make(map[string]Member, len(s.shard)+1)
				for a, sm := range s.shard {
					s.pending[a] = sm
				}
			}
			if cur, ok := s.pending[m.Addr]; !ok || cur != m {
				s.pending[m.Addr] = m
				s.bumpPendingLocked()
			}
		}
		s.dropNoopPendingLocked()
	}
	return s.membershipLocked(), nil
}

// Heartbeat renews addr's lease. ErrUnknownMember means the lease
// already expired (or the member never registered); re-register.
func (s *Server) Heartbeat(addr string) (Membership, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if _, ok := s.lease[addr]; !ok {
		return s.membershipLocked(), ErrUnknownMember
	}
	s.lease[addr] = s.now().Add(s.ttl)
	return s.membershipLocked(), nil
}

// Leave removes addr. A store member leaves immediately. An active
// shard member is only removed from the *pending* set: it must keep
// serving (and heartbeating) until the migrating client has drained it
// and calls Complete — poll Membership until the addr is gone.
func (s *Server) Leave(addr string) Membership {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if _, ok := s.store[addr]; ok {
		delete(s.store, addr)
		delete(s.lease, addr)
		s.bumpActiveLocked()
	}
	if _, ok := s.shard[addr]; ok {
		if s.pending == nil {
			s.pending = make(map[string]Member, len(s.shard))
			for a, sm := range s.shard {
				s.pending[a] = sm
			}
		}
		if _, ok := s.pending[addr]; ok {
			delete(s.pending, addr)
			s.bumpPendingLocked()
		}
	} else if s.pending != nil {
		// A pending joiner changing its mind leaves directly.
		if _, ok := s.pending[addr]; ok {
			delete(s.pending, addr)
			delete(s.lease, addr)
			s.bumpPendingLocked()
		}
	}
	s.dropNoopPendingLocked()
	return s.membershipLocked()
}

// Complete flips the pending shard set into the active set. pendEpoch
// must be the PendingEpoch of the Membership the migration plan was
// computed from; ErrStaleEpoch means the pending set changed under the
// caller (or nothing is pending) and the plan must be redone.
func (s *Server) Complete(pendEpoch uint64) (Membership, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if s.pending == nil || pendEpoch != s.pendEp {
		return s.membershipLocked(), ErrStaleEpoch
	}
	s.shard = s.pending
	s.pending = nil
	s.bumpActiveLocked()
	// Drop leases of members no longer in any set, so their heartbeats
	// answer unknown and a leaver's session knows it may stop.
	for addr := range s.lease {
		_, inShard := s.shard[addr]
		_, inStore := s.store[addr]
		if !inShard && !inStore {
			delete(s.lease, addr)
		}
	}
	return s.membershipLocked(), nil
}

// Membership returns the current versioned view (after lazy expiry).
func (s *Server) Membership() Membership {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return s.membershipLocked()
}

// registerResponse is the /v1/register body: the membership plus the
// lease TTL the daemon must heartbeat within.
type registerResponse struct {
	TTLMillis int64 `json:"ttl_ms"`
	Membership
}

// Handler returns the HTTP API:
//
//	POST /v1/register  {kind,addr,boot_id,shards} -> {ttl_ms, epoch, ...}
//	POST /v1/heartbeat {addr}                     -> membership (404 if unknown)
//	POST /v1/leave     {addr}                     -> membership
//	POST /v1/complete  {pending_epoch}            -> membership (409 if stale)
//	GET  /v1/membership                           -> membership
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		var m Member
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ms, err := s.Register(m)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, registerResponse{TTLMillis: s.ttl.Milliseconds(), Membership: ms})
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Addr string `json:"addr"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ms, err := s.Heartbeat(req.Addr)
		if err != nil {
			writeJSON(w, http.StatusNotFound, ms)
			return
		}
		writeJSON(w, http.StatusOK, ms)
	})
	mux.HandleFunc("POST /v1/leave", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Addr string `json:"addr"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, s.Leave(req.Addr))
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			PendingEpoch uint64 `json:"pending_epoch"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ms, err := s.Complete(req.PendingEpoch)
		if err != nil {
			writeJSON(w, http.StatusConflict, ms)
			return
		}
		writeJSON(w, http.StatusOK, ms)
	})
	mux.HandleFunc("GET /v1/membership", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Membership())
	})
	return mux
}
