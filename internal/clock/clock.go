// Package clock provides injectable time sources so that crawler logic,
// schedulers and experiments can run against either wall-clock time or a
// deterministic virtual clock.
//
// All time-dependent code in this repository accepts a Clock rather than
// calling time.Now directly. Experiments use Virtual so that a 4-month
// crawl (the paper monitors 270 sites for 128 days) replays in
// milliseconds and is perfectly reproducible.
package clock

import (
	"sync"
	"time"
)

// Day is the canonical experiment granularity: the paper visits every page
// once per day, so one day is the smallest change-detection interval
// (Section 3.1, Figure 1).
const Day = 24 * time.Hour

// Clock abstracts a time source.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks (or virtually advances) for d.
	Sleep(d time.Duration)
}

// Wall is the real-time clock backed by the time package.
type Wall struct{}

// Now returns time.Now().
func (Wall) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (Wall) Sleep(d time.Duration) { time.Sleep(d) }

// Virtual is a deterministic, manually advanced clock. The zero value is
// not ready for use; call NewVirtual.
//
// Virtual is safe for concurrent use. Sleep advances the clock immediately
// rather than blocking, which makes single-goroutine simulations trivially
// fast; multi-goroutine simulations that need barrier semantics should use
// Advance from a coordinator instead.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

// Epoch is the simulated start of the paper's experiment:
// February 17th, 1999 (Section 2).
var Epoch = time.Date(1999, time.February, 17, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a virtual clock starting at t.
func NewVirtual(t time.Time) *Virtual { return &Virtual{now: t} }

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep advances the virtual clock by d without blocking.
func (v *Virtual) Sleep(d time.Duration) { v.Advance(d) }

// Advance moves the clock forward by d. Negative d is ignored: a
// simulation clock never runs backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// Set jumps the clock to t if t is later than the current instant.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
}

// Days converts a duration to fractional days.
func Days(d time.Duration) float64 { return d.Hours() / 24 }

// FromDays converts fractional days to a duration.
func FromDays(days float64) time.Duration {
	return time.Duration(days * float64(Day))
}
