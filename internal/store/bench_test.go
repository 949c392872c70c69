package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// The perf ledger's `store get/put/scan` layer line: the disk store on
// the repository benchmark's corpus shape (bench/serve.go: 200 sites ×
// 100 pages, 2 KiB bodies, a site link and a page link per record — a
// third link here so the links' decode cost is not flattered).

const (
	benchSites   = 200
	benchPerSite = 100
	benchBody    = 2048
)

func benchURL(site, page int) string {
	return fmt.Sprintf("http://site%03d.bench/p%04d", site, page)
}

// benchRecords builds sites×perSite records of generation gen, site-major.
func benchRecords(sites, perSite, gen int) []PageRecord {
	block := make([]byte, 1<<20)
	rand.New(rand.NewSource(1999)).Read(block)
	recs := make([]PageRecord, 0, sites*perSite)
	for s := 0; s < sites; s++ {
		for p := 0; p < perSite; p++ {
			i := s*perSite + p
			off := (i*131 + gen*7919) % (len(block) - benchBody)
			recs = append(recs, PageRecord{
				URL:       benchURL(s, p),
				Checksum:  uint64(i)<<8 | uint64(gen),
				FetchedAt: float64(gen) + float64(i)/float64(sites*perSite),
				Version:   gen,
				Links: []string{
					fmt.Sprintf("http://site%03d.bench/", s),
					benchURL(s, (p+1)%perSite),
					benchURL((s+1)%sites, p),
				},
				Content: block[off : off+benchBody],
			})
		}
	}
	return recs
}

func benchDisk(b *testing.B, sites int) (*Disk, []PageRecord) {
	b.Helper()
	return benchDiskIn(b, b.TempDir(), sites)
}

func benchDiskIn(b *testing.B, dir string, sites int) (*Disk, []PageRecord) {
	b.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	recs := benchRecords(sites, benchPerSite, 0)
	for lo := 0; lo < len(recs); lo += 1000 {
		if err := d.PutBatch(recs[lo : lo+1000]); err != nil {
			b.Fatal(err)
		}
	}
	return d, recs
}

var benchSink PageRecord

// BenchmarkStoreDiskGet is a point read of a uniformly random key: what
// a serve request that misses the cache pays the store.
func BenchmarkStoreDiskGet(b *testing.B) {
	d, recs := benchDisk(b, benchSites)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, ok, err := d.Get(recs[rng.Intn(len(recs))].URL)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		benchSink = rec
	}
}

// BenchmarkStoreDiskList50 is one page of a listing: ScanFrom from a
// random site's prefix, stopping after 50 records. The 200k case holds
// ten times the keys; time and allocation per page must not follow.
func BenchmarkStoreDiskList50(b *testing.B) {
	for _, sites := range []int{benchSites, 10 * benchSites} {
		b.Run(fmt.Sprintf("keys=%dk", sites*benchPerSite/1000), func(b *testing.B) {
			if testing.Short() && sites > benchSites {
				b.Skip("400 MB collection")
			}
			d, _ := benchDisk(b, sites)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				err := d.ScanFrom(fmt.Sprintf("http://site%03d.bench/", rng.Intn(sites)), func(rec PageRecord) bool {
					benchSink = rec
					n++
					return n < 50
				})
				if err != nil || n != 50 {
					b.Fatal(n, err)
				}
			}
		})
	}
}

// BenchmarkStoreDiskPutBatch100 overwrites 100 consecutive records per
// call, as the serve_live writer and an in-place crawl's batches do.
func BenchmarkStoreDiskPutBatch100(b *testing.B) {
	d, _ := benchDisk(b, benchSites)
	next := benchRecords(benchSites, benchPerSite, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 100) % len(next)
		if err := d.PutBatch(next[lo : lo+100]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreDiskReopen opens a closed collection of 20k or 200k
// records: the replay that rebuilds the index, which today reads every
// byte of every segment, bodies included.
func BenchmarkStoreDiskReopen(b *testing.B) {
	for _, sites := range []int{benchSites, 10 * benchSites} {
		b.Run(fmt.Sprintf("keys=%dk", sites*benchPerSite/1000), func(b *testing.B) {
			if testing.Short() && sites > benchSites {
				b.Skip("400 MB collection")
			}
			dir := b.TempDir()
			d, recs := benchDiskIn(b, dir, sites)
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := OpenDisk(dir)
				if err != nil {
					b.Fatal(err)
				}
				if re.Len() != len(recs) {
					b.Fatalf("reopened %d records, want %d", re.Len(), len(recs))
				}
				re.Close()
			}
		})
	}
}
