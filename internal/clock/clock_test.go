package clock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtualStartsAtGivenTime(t *testing.T) {
	start := time.Date(2020, 5, 1, 12, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	if got := v.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
}

func TestExperimentClockEpoch(t *testing.T) {
	want := time.Date(1999, time.February, 17, 0, 0, 0, 0, time.UTC)
	if !Epoch.Equal(want) {
		t.Fatalf("experiment epoch is %v, want %v", Epoch, want)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual(Epoch)
	v.Advance(48 * time.Hour)
	if got := v.Now().Sub(Epoch); got != 48*time.Hour {
		t.Fatalf("advanced %v, want 48h", got)
	}
}

func TestVirtualAdvanceNegativeIgnored(t *testing.T) {
	v := NewVirtual(Epoch)
	v.Advance(-time.Hour)
	if !v.Now().Equal(Epoch) {
		t.Fatal("negative advance moved the clock")
	}
}

func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtual(Epoch)
	done := make(chan struct{})
	go func() {
		v.Sleep(time.Hour) // must not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("virtual Sleep blocked")
	}
	if v.Now().Sub(Epoch) != time.Hour {
		t.Fatalf("Sleep advanced %v, want 1h", v.Now().Sub(Epoch))
	}
}

func TestVirtualSetOnlyForward(t *testing.T) {
	v := NewVirtual(Epoch)
	later := Epoch.Add(3 * Day)
	v.Set(later)
	if !v.Now().Equal(later) {
		t.Fatalf("Set forward failed: %v", v.Now())
	}
	v.Set(Epoch) // backwards: ignored
	if !v.Now().Equal(later) {
		t.Fatal("Set moved the clock backwards")
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual(Epoch)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Advance(time.Minute)
		}()
	}
	wg.Wait()
	if got := v.Now().Sub(Epoch); got != 50*time.Minute {
		t.Fatalf("concurrent advances yielded %v, want 50m", got)
	}
}

func TestDaysRoundTrip(t *testing.T) {
	cases := []float64{0, 0.5, 1, 2.25, 128}
	for _, d := range cases {
		if got := Days(FromDays(d)); got < d-1e-9 || got > d+1e-9 {
			t.Errorf("Days(FromDays(%v)) = %v", d, got)
		}
	}
}

func TestDayConstant(t *testing.T) {
	if Day != 24*time.Hour {
		t.Fatalf("Day = %v", Day)
	}
}

func TestWallClockProgresses(t *testing.T) {
	w := Wall{}
	a := w.Now()
	w.Sleep(time.Millisecond)
	if !w.Now().After(a) {
		t.Fatal("wall clock did not progress")
	}
}
