package core

import (
	"errors"
	"strings"
	"testing"

	"webevolve/internal/store"
)

// failingStore is a Mem whose Delete, Put or Get fails with
// errStoreBoom, as configured. PutBatch, the crawl's own write, works.
type failingStore struct {
	*store.Mem
	del, put, get bool
}

func (s *failingStore) Delete(url string) error {
	if s.del {
		return errStoreBoom
	}
	return s.Mem.Delete(url)
}

func (s *failingStore) Put(rec store.PageRecord) error {
	if s.put {
		return errStoreBoom
	}
	return s.Mem.Put(rec)
}

func (s *failingStore) Get(url string) (store.PageRecord, bool, error) {
	if s.get {
		return store.PageRecord{}, false, errStoreBoom
	}
	return s.Mem.Get(url)
}

// TestStoreErrorsEndTheRun: a delete of a vanished or evicted page, and
// the shadow swap's carry-forward read and write, end the run with the
// store's error, as a failed PutBatch does; none may leave a page the
// crawl dropped in the served collection, or lose one it kept, in
// silence.
func TestStoreErrorsEndTheRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fail   failingStore
		config func(*Config)
		check  func(*testing.T, Metrics)
		want   string // in the run's error
	}{
		{"drop", failingStore{del: true}, func(cfg *Config) { cfg.CollectionSize = 1000 },
			func(t *testing.T, m Metrics) {
				if m.NotFound == 0 || m.Evictions != 0 {
					t.Errorf("%d drops, %d evictions: not the drop's delete", m.NotFound, m.Evictions)
				}
			}, "deleting"},
		{"evict", failingStore{del: true}, func(cfg *Config) { cfg.CollectionSize = 10 },
			func(t *testing.T, m Metrics) {
				if m.Evictions == 0 || m.NotFound != 0 {
					t.Errorf("%d evictions, %d drops: not the eviction's delete", m.Evictions, m.NotFound)
				}
			}, "deleting"},
		{"carry-put", failingStore{put: true}, func(cfg *Config) {
			cfg.Update, cfg.Freq, cfg.MaxIntervalDays = Shadow, VariableFreq, 100
		}, func(*testing.T, Metrics) {}, "carrying"},
		{"carry-get", failingStore{get: true}, func(cfg *Config) {
			cfg.Update, cfg.Freq, cfg.MaxIntervalDays = Shadow, VariableFreq, 100
		}, func(*testing.T, Metrics) {}, "carrying"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, f := testWeb(t, 6)
			cfg := baseConfig(w)
			tc.config(&cfg)
			sh, err := store.NewShadowed(nil, func() (store.Collection, error) {
				s := tc.fail
				s.Mem = store.NewMem()
				return &s, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewWithStore(cfg, f, sh)
			if err != nil {
				t.Fatal(err)
			}
			err = c.RunUntil(120)
			if !errors.Is(err, errStoreBoom) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run over a failing store returned %v, want the store's error %s", err, tc.want)
			}
			tc.check(t, c.Metrics())
		})
	}
}
