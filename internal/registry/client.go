package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webevolve/internal/obs"
)

// EpochGauge tracks the last membership epoch this process observed,
// whichever side of the registry it sits on (a daemon's heartbeat
// session or a crawl client's poll). Exported so internal/cluster can
// stamp it from membership polls without a second obs family.
var EpochGauge = obs.Default.Gauge("webevolve_membership_epoch",
	"cluster membership epoch last observed by this process")

// Client speaks the registry HTTP API. The zero value is not usable;
// build one with NewClient. All methods are safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the registry at addr — a host:port or
// a full http:// base URL.
func NewClient(addr string) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &Client{base: base, hc: &http.Client{Timeout: 10 * time.Second}}
}

func (c *Client) post(path string, req any, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hr, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("registry %s%s: %w", c.base, path, err)
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hr.Body, 4<<20))
	if err != nil {
		return hr.StatusCode, fmt.Errorf("registry %s%s: %w", c.base, path, err)
	}
	if hr.StatusCode == http.StatusBadRequest {
		return hr.StatusCode, fmt.Errorf("registry %s%s: %s", c.base, path, strings.TrimSpace(string(data)))
	}
	if resp != nil {
		if err := json.Unmarshal(data, resp); err != nil {
			return hr.StatusCode, fmt.Errorf("registry %s%s: bad response: %w", c.base, path, err)
		}
	}
	return hr.StatusCode, nil
}

// Register registers m and returns the membership plus the lease TTL
// to heartbeat within.
func (c *Client) Register(m Member) (Membership, time.Duration, error) {
	var resp registerResponse
	if _, err := c.post("/v1/register", m, &resp); err != nil {
		return Membership{}, 0, err
	}
	EpochGauge.Set(int64(resp.Epoch))
	return resp.Membership, time.Duration(resp.TTLMillis) * time.Millisecond, nil
}

// Heartbeat renews addr's lease; ErrUnknownMember means re-register.
func (c *Client) Heartbeat(addr string) (Membership, error) {
	var ms Membership
	code, err := c.post("/v1/heartbeat", map[string]string{"addr": addr}, &ms)
	if err != nil {
		return ms, err
	}
	if code == http.StatusNotFound {
		return ms, ErrUnknownMember
	}
	EpochGauge.Set(int64(ms.Epoch))
	return ms, nil
}

// Leave deregisters addr (see Server.Leave for shard-member
// semantics: active shard members drain via the pending set).
func (c *Client) Leave(addr string) (Membership, error) {
	var ms Membership
	if _, err := c.post("/v1/leave", map[string]string{"addr": addr}, &ms); err != nil {
		return ms, err
	}
	return ms, nil
}

// Complete flips the pending shard set read at pendEpoch; ErrStaleEpoch
// means the plan must be recomputed from a fresh Membership.
func (c *Client) Complete(pendEpoch uint64) error {
	code, err := c.post("/v1/complete", map[string]uint64{"pending_epoch": pendEpoch}, nil)
	if err != nil {
		return err
	}
	if code == http.StatusConflict {
		return ErrStaleEpoch
	}
	return nil
}

// Membership fetches the current versioned view.
func (c *Client) Membership() (Membership, error) {
	hr, err := c.hc.Get(c.base + "/v1/membership")
	if err != nil {
		return Membership{}, fmt.Errorf("registry %s/v1/membership: %w", c.base, err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		// Whatever the body says, it is not a membership: an unavailable
		// registry must never read as an empty cluster.
		return Membership{}, fmt.Errorf("registry %s/v1/membership: %s", c.base, hr.Status)
	}
	var ms Membership
	if err := json.NewDecoder(io.LimitReader(hr.Body, 4<<20)).Decode(&ms); err != nil {
		return Membership{}, fmt.Errorf("registry %s/v1/membership: bad response: %w", c.base, err)
	}
	EpochGauge.Set(int64(ms.Epoch))
	return ms, nil
}

// Session keeps a daemon registered: it registers m, heartbeats at a
// third of the lease TTL, and re-registers if the lease ever lapses
// (registry restart, long GC pause). Close leaves immediately;
// CloseWait leaves and then keeps the lease alive until the registry
// confirms the member has drained out of the active set.
type Session struct {
	c       *Client
	m       Member
	ttl     time.Duration
	closing atomic.Bool
	stop    chan struct{}
	once    sync.Once
	done    chan struct{}
}

// StartSession registers m and starts the heartbeat loop.
func StartSession(c *Client, m Member) (*Session, error) {
	_, ttl, err := c.Register(m)
	if err != nil {
		return nil, err
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	s := &Session{c: c, m: m, ttl: ttl, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s, nil
}

func (s *Session) loop() {
	defer close(s.done)
	t := time.NewTicker(s.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if _, err := s.c.Heartbeat(s.m.Addr); err == ErrUnknownMember && !s.closing.Load() {
				// Lease lapsed (or the registry restarted): rejoin. For a
				// shard member this lands in the pending set and a join
				// migration pulls our partitions back.
				_, _, _ = s.c.Register(s.m)
			}
		}
	}
}

func (s *Session) stopLoop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// Close leaves the registry immediately and stops heartbeating. For an
// active shard member prefer CloseWait, which drains first.
func (s *Session) Close() error {
	s.closing.Store(true)
	s.stopLoop()
	_, err := s.c.Leave(s.m.Addr)
	return err
}

// CloseWait announces the leave and keeps heartbeating until the
// member is out of the active set (the migrating client drained it and
// completed the epoch flip) or the timeout passes. The daemon must
// keep serving its wire listener until CloseWait returns — the drain
// reads its partitions through it.
func (s *Session) CloseWait(timeout time.Duration) error {
	s.closing.Store(true)
	ms, err := s.c.Leave(s.m.Addr)
	if err != nil {
		s.stopLoop()
		return err
	}
	if !ms.HasAddr(s.m.Addr) {
		s.stopLoop()
		return nil
	}
	poll := s.ttl / 4
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	for {
		if time.Now().After(deadline) {
			s.stopLoop()
			return fmt.Errorf("registry: leave of %s not completed within %v (no migrating client?)", s.m.Addr, timeout)
		}
		time.Sleep(poll)
		ms, err := s.c.Membership()
		if err != nil {
			continue // registry blip; the heartbeat loop keeps the lease alive
		}
		if !ms.HasAddr(s.m.Addr) {
			s.stopLoop()
			return nil
		}
	}
}
