package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptySchedulerRuns(t *testing.T) {
	s := New()
	s.Run()
	if s.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", s.Now())
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func(now Time) { got = append(got, now) })
	}
	s.Run()
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func(Time) { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var fired Time
	s.At(10, func(now Time) {
		s.After(5, func(n Time) { fired = n })
	})
	s.Run()
	if fired != 15 {
		t.Fatalf("After(5) at t=10 fired at %v, want 15", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func(Time) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(5, func(Time) {})
}

func TestNilHandlerPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil handler")
		}
	}()
	s.At(1, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func(Time) { fired = true })
	if s.Stopped(e) {
		t.Fatal("pending event reported stopped")
	}
	if at, ok := s.When(e); !ok || at != 1 {
		t.Fatalf("When = %v,%v, want 1,true", at, ok)
	}
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !s.Stopped(e) {
		t.Fatal("cancelled event not marked stopped")
	}
	if _, ok := s.When(e); ok {
		t.Fatal("When on cancelled event reported a time")
	}
	s.Cancel(e)       // double cancel is a no-op
	s.Cancel(Event{}) // zero handle is a no-op
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []Time
	var evs []Event
	for _, at := range []Time{1, 2, 3, 4, 5} {
		evs = append(evs, s.At(at, func(now Time) { got = append(got, now) }))
	}
	s.Cancel(evs[2]) // t=3
	s.Run()
	want := []Time{1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func(Time) { count++ })
	}
	s.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("RunUntil(5.5) fired %d, want 5", count)
	}
	if s.Now() != 5.5 {
		t.Fatalf("clock at %v, want 5.5", s.Now())
	}
	if s.Pending() != 5 {
		t.Fatalf("pending %d, want 5", s.Pending())
	}
	s.RunUntil(100)
	if count != 10 {
		t.Fatalf("after full run fired %d, want 10", count)
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func(Time) {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", s.Fired())
	}
}

func TestTickerPeriodic(t *testing.T) {
	s := New()
	var ticks []Time
	tk := s.NewTicker(2, func(now Time) { ticks = append(ticks, now) })
	s.At(9, func(Time) { tk.Stop() })
	s.Run()
	want := []Time{2, 4, 6, 8}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New()
	n := 0
	var tk *Ticker
	tk = s.NewTicker(1, func(Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(100)
	if n != 3 {
		t.Fatalf("ticker fired %d times after in-callback stop, want 3", n)
	}
}

func TestTickerInvalidPeriodPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive period")
		}
	}()
	s.NewTicker(0, func(Time) {})
}

// Property: for any set of non-negative offsets, events fire in sorted
// order and the clock ends at the maximum.
func TestQuickDequeueOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r) / 8
			s.At(at, func(now Time) { fired = append(fired, now) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return s.Now() == fired[len(fired)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement to
// fire, still in order.
func TestQuickCancelSubset(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		s := New()
		n := 1 + rnd.Intn(50)
		fired := map[int]bool{}
		evs := make([]Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = s.At(Time(rnd.Intn(100)), func(Time) { fired[i] = true })
		}
		cancelled := map[int]bool{}
		for i := 0; i < n; i++ {
			if rnd.Intn(2) == 0 {
				s.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := 0; i < n; i++ {
			if cancelled[i] && fired[i] {
				t.Fatalf("trial %d: cancelled event %d fired", trial, i)
			}
			if !cancelled[i] && !fired[i] {
				t.Fatalf("trial %d: live event %d did not fire", trial, i)
			}
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%97), func(Time) {})
		}
		s.Run()
	}
}
