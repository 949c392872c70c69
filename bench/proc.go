package main

import (
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// procSample is the process-level state a measured window is bracketed by.
type procSample struct {
	at         time.Time
	cpuS       float64 // user + system CPU of this process
	peakRSSMB  float64 // high-water resident set so far
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:         time.Now(),
		cpuS:       tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		peakRSSMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func heapMB() (heap, gcFrac float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20), ms.GCCPUFraction
}

// dirBytes sums the sizes of the regular files under the directories.
func dirBytes(dirs ...string) int64 {
	var total int64
	for _, dir := range dirs {
		_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
			return nil // a file vanishing mid-walk (segment roll) is not an error here
		})
	}
	return total
}
