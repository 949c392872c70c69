// Package store implements the crawler's Collection (Figure 12): the
// repository of crawled pages. Two backends share one interface — an
// in-memory store for simulations and a log-structured disk store in the
// WebBase spirit ("a system designed to create and maintain large web
// repositories") — plus a Shadowed wrapper implementing the
// shadow-collection update discipline of Section 4: writes go to a
// separate crawler's collection which atomically replaces the current
// collection at swap time.
package store

import (
	"bytes"
	"errors"
	"sync"
)

// PageRecord is one stored page.
type PageRecord struct {
	URL string
	// Checksum is the content checksum used for change detection
	// (Section 5.3: "the UpdateModule records the checksum of the page
	// from the last crawl and compares").
	Checksum uint64
	// FetchedAt is when the copy was crawled (days).
	FetchedAt float64
	// Version is the fetcher-reported content version when available
	// (simulated webs); 0 otherwise.
	Version int
	// Links are the out-links extracted from the content.
	Links []string
	// Content is the page body; may be nil when the crawler stores only
	// metadata.
	Content []byte
	// Importance is the score assigned by the ranking module at save
	// time.
	Importance float64
}

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("store: closed")

// Reader is the read-only half of a Collection: everything a consumer
// of the repository needs and nothing that can mutate it. The serving
// plane (internal/serve) is written against this interface alone, so
// the compiler proves a read path can never write — a handler holding a
// Reader has no Put to call. All implementations are safe for
// concurrent use.
type Reader interface {
	// Get returns the record for url; ok is false when absent.
	Get(url string) (rec PageRecord, ok bool, err error)
	// Len returns the number of stored pages.
	Len() int
	// URLs returns all stored URLs in sorted order.
	URLs() []string
	// Scan calls fn for each record in sorted URL order until fn returns
	// false.
	Scan(fn func(PageRecord) bool) error
	// ScanFrom is Scan resuming strictly after the given URL (empty
	// scans everything) — the primitive under paged listings: a chunked
	// consumer re-enters with the last URL it saw and never pays for the
	// prefix again.
	ScanFrom(after string, fn func(PageRecord) bool) error
}

// Writer is the mutating half of a Collection.
type Writer interface {
	// Put inserts or replaces the record for rec.URL.
	Put(rec PageRecord) error
	// PutBatch inserts or replaces many records in one call, applying
	// them in slice order. Backends amortize per-call overhead (one
	// lock acquisition, one flush) across the batch.
	PutBatch(recs []PageRecord) error
	// Delete removes url; deleting an absent URL is a no-op.
	Delete(url string) error
}

// Collection is the full storage interface shared by all backends:
// the read view plus writes plus lifecycle. All implementations are
// safe for concurrent use.
type Collection interface {
	Reader
	Writer
	// Close releases resources. The collection is unusable afterwards.
	Close() error
}

// Value is one record in its encoded form: the URL it is keyed by and
// its value bytes (AppendValue's layout). Mem and Disk also take and
// hand out records this way (PutValues, GetValue, ScanValuesFrom), so a
// store server can pass a client's bytes to its backend, and the
// backend's bytes back, without decoding them.
type Value struct {
	URL   string
	Bytes []byte
}

// The built-in backends implement the full interface (cluster's
// RemoteStore collections assert the same in their own package).
var (
	_ Collection = (*Mem)(nil)
	_ Collection = (*Disk)(nil)
)

// Mem is the in-memory Collection.
type Mem struct {
	mu         sync.RWMutex
	m          map[string]PageRecord
	sortedKeys // m's keys in order: URLs, URLsFrom, Scan, ScanFrom; closed
}

// NewMem returns an empty in-memory collection.
func NewMem() *Mem {
	s := &Mem{m: make(map[string]PageRecord)}
	s.sortedKeys = sortedKeys{
		mu:   &s.mu,
		live: func(key string) bool { _, ok := s.m[key]; return ok },
		get:  s.Get,
	}
	return s
}

// Put implements Collection.
func (s *Mem) Put(rec PageRecord) error {
	return s.PutBatch([]PageRecord{rec})
}

// PutBatch implements Collection.
func (s *Mem) PutBatch(recs []PageRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for i := range recs {
		if err := checkRecord(&recs[i]); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		n := len(s.m)
		s.m[rec.URL] = rec
		if len(s.m) != n {
			s.touch(rec.URL)
		}
	}
	return nil
}

// PutValues is PutBatch for encoded records: every value is decoded
// before any record is applied. Mem keeps records, not values, so each
// is decoded from a copy — a decoded record aliases its bytes, and the
// caller's are not kept.
func (s *Mem) PutValues(vals []Value) error {
	recs := make([]PageRecord, len(vals))
	for i, v := range vals {
		rec, err := DecodeValue(v.URL, bytes.Clone(v.Bytes))
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	return s.PutBatch(recs)
}

// Get implements Collection.
func (s *Mem) Get(url string) (PageRecord, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return PageRecord{}, false, ErrClosed
	}
	rec, ok := s.m[url]
	return rec, ok, nil
}

// GetValue is Get returning the record encoded; the bytes are the
// caller's.
func (s *Mem) GetValue(url string) ([]byte, bool, error) {
	rec, ok, err := s.Get(url)
	if !ok {
		return nil, false, err
	}
	return AppendValue(nil, &rec), true, nil
}

// ScanValuesFrom is ScanFrom over encoded records, each encoded into
// one reused buffer: val is valid only until fn returns.
func (s *Mem) ScanValuesFrom(after string, fn func(url string, val []byte) bool) error {
	var buf []byte
	return s.ScanFrom(after, func(rec PageRecord) bool {
		buf = AppendValue(buf[:0], &rec)
		return fn(rec.URL, buf)
	})
}

// Delete implements Collection.
func (s *Mem) Delete(url string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.m[url]; ok {
		delete(s.m, url)
		s.touch(url)
	}
	return nil
}

// Len implements Collection.
func (s *Mem) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Close implements Collection.
func (s *Mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = nil
	s.sortedKeys.close()
	return nil
}
