package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"webevolve/internal/store"
)

// TestConfigMatrixGolden pins what the configurations the commands and
// examples run produce on testWeb: the metrics and a digest over the
// final collection, for every crawlsim -matrix cell (EP; batch runs
// fixed frequency only), proportional
// under EP (examples/newsmonitor) and variable under EB
// (examples/archive's estimator). A change that is meant to leave the
// crawl's behaviour alone must leave testdata/config_matrix.golden
// alone; a change that moves a schedule on purpose rewrites it and says
// why.
func TestConfigMatrixGolden(t *testing.T) {
	type cell struct {
		mode Mode
		upd  UpdateStyle
		freq FreqPolicy
		est  EstimatorKind
	}
	var cells []cell
	for _, mode := range []Mode{Steady, Batch} {
		for _, upd := range []UpdateStyle{InPlace, Shadow} {
			for _, freq := range []FreqPolicy{FixedFreq, VariableFreq} {
				if mode == Batch && freq != FixedFreq {
					continue // Validate refuses it
				}
				cells = append(cells, cell{mode, upd, freq, EstimatorEP})
			}
		}
	}
	cells = append(cells,
		cell{Steady, InPlace, ProportionalFreq, EstimatorEP},
		cell{Steady, InPlace, VariableFreq, EstimatorEB})

	var got strings.Builder
	for _, cl := range cells {
		w, f := testWeb(t, 43)
		cfg := baseConfig(w)
		cfg.Mode, cfg.Update, cfg.Freq, cfg.Estimator = cl.mode, cl.upd, cl.freq, cl.est
		c, err := New(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntil(40); err != nil {
			t.Fatal(err)
		}
		digest, n, err := collectionDigest(c.Collection())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s/%s/%s/%s: %+v\n  collection %d pages sha256 %x\n",
			cl.mode, cl.upd, cl.freq, cl.est, c.Metrics(), n, digest)
	}
	path := filepath.Join("testdata", "config_matrix.golden")
	want, err := os.ReadFile(path)
	if err != nil || got.String() != string(want) {
		t.Errorf("crawl results drifted from %s (%v)\ngot:\n%swant:\n%s", path, err, got.String(), want)
	}
}

// collectionDigest hashes every record's URL, checksum, fetch day and
// version in URL order.
func collectionDigest(coll store.Collection) ([]byte, int, error) {
	var recs []store.PageRecord
	if err := coll.Scan(func(r store.PageRecord) bool {
		recs = append(recs, r)
		return true
	}); err != nil {
		return nil, 0, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].URL < recs[j].URL })
	h := sha256.New()
	var buf [8]byte
	for _, r := range recs {
		h.Write([]byte(r.URL))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], r.Checksum)
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.FetchedAt))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(r.Version))
		h.Write(buf[:])
	}
	return h.Sum(nil), len(recs), nil
}
