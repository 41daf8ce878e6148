package sim

import (
	"math/rand"
	"testing"
)

// A handle to a fired event whose pool slot has since been reused must
// not cancel the slot's new occupant: the generation check makes Cancel a
// strict no-op on stale handles.
func TestCancelOnFiredReusedSlotIsNoOp(t *testing.T) {
	s := New()
	var firstFired, secondFired bool
	e1 := s.At(1, func(Time) { firstFired = true })
	if !s.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if !firstFired {
		t.Fatal("first event did not fire")
	}
	// The pool has exactly one slot, so this reuses e1's slot.
	e2 := s.At(2, func(Time) { secondFired = true })
	if e2.slot != e1.slot {
		t.Fatalf("expected slot reuse (e1 slot %d, e2 slot %d)", e1.slot, e2.slot)
	}
	if e2.gen == e1.gen {
		t.Fatal("reused slot did not bump generation")
	}
	s.Cancel(e1) // stale handle: must NOT cancel e2
	if s.Stopped(e2) {
		t.Fatal("cancelling a stale handle killed the slot's new occupant")
	}
	s.Run()
	if !secondFired {
		t.Fatal("second event did not fire after stale cancel")
	}
}

// Cancelling an event whose slot was recycled through many generations
// stays a no-op, and cancelling the live occupant still works.
func TestGenerationChurn(t *testing.T) {
	s := New()
	stale := s.At(1, func(Time) {})
	s.Run()
	for i := 0; i < 100; i++ {
		e := s.At(Time(100+i), func(Time) { t.Fatal("cancelled event fired") })
		s.Cancel(stale) // harmless every generation
		s.Cancel(e)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("pending = %d, want 0", got)
	}
}

// RunUntil's earliest-event peek must hold under the 4-ary layout: an
// empty queue only advances the clock, and events past the horizon stay
// queued in correct order for a later resume.
func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock at %v, want 42", s.Now())
	}
	if s.Fired() != 0 {
		t.Fatalf("fired %d events on empty queue", s.Fired())
	}
	// Resuming later still fires in order.
	var got []Time
	for _, at := range []Time{50, 44, 47} {
		s.At(at, func(now Time) { got = append(got, now) })
	}
	s.RunUntil(48)
	if len(got) != 2 || got[0] != 44 || got[1] != 47 {
		t.Fatalf("fired %v, want [44 47]", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want 1", s.Pending())
	}
}

// The heap must stay consistent under a random interleaving of schedule,
// cancel, and step operations — a stress test of removeAt's dual sift and
// the free-list recycling.
func TestHeapStressScheduleCancelStep(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	s := New()
	live := map[Event]Time{}
	var lastFired Time
	firedCount := 0
	for op := 0; op < 5000; op++ {
		switch r := rnd.Intn(10); {
		case r < 5: // schedule
			at := s.Now() + Time(rnd.Intn(100))
			e := s.At(at, func(now Time) {
				if now < lastFired {
					t.Fatalf("time went backwards: %v after %v", now, lastFired)
				}
				lastFired = now
				firedCount++
			})
			live[e] = at
		case r < 8: // cancel a random live event (map order is fine: any one)
			for e := range live {
				s.Cancel(e)
				delete(live, e)
				break
			}
		default: // step
			before := s.Pending()
			stepped := s.Step()
			if stepped != (before > 0) {
				t.Fatalf("Step=%v with %d pending", stepped, before)
			}
			if stepped {
				// One live handle just fired; drop whichever is stopped.
				for e := range live {
					if s.Stopped(e) {
						delete(live, e)
					}
				}
			}
		}
	}
	if s.Pending() != len(live) {
		t.Fatalf("pending %d but tracking %d live events", s.Pending(), len(live))
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

// BenchmarkSchedulerPushPop measures the steady-state hot path: schedule
// one event and fire one event per iteration over a deep queue. With the
// pooled kernel this is allocation-free once warm.
func BenchmarkSchedulerPushPop(b *testing.B) {
	s := New()
	nop := func(Time) {}
	const depth = 1024
	for i := 0; i < depth; i++ {
		s.At(Time(i%97)+1e6, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+Time(i%97)+1e6, nop)
		s.Step()
	}
}

// BenchmarkSchedulerCancel measures schedule+cancel churn (the timer
// reset pattern protocols use constantly). The scheduler is pre-sized
// via the NewScheduler capacity hint so the steady state is what's
// measured — 0 allocs/op — rather than slice-regrowth noise.
func BenchmarkSchedulerCancel(b *testing.B) {
	const depth = 256
	s := NewScheduler(depth + 1)
	nop := func(Time) {}
	for i := 0; i < depth; i++ {
		s.At(Time(i)+1e9, nop) // far-future ballast so cancels hit mid-heap
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.At(Time(i%1000)+1e6, nop)
		s.Cancel(e)
	}
}

// TestNewSchedulerCapacityHint pins the pre-sizing contract: the hint is
// an optimization only — behaviour (and growth past the hint) is
// unchanged.
func TestNewSchedulerCapacityHint(t *testing.T) {
	s := NewScheduler(4)
	var fired []Time
	for i := 8; i >= 1; i-- { // deliberately exceed the hint
		s.At(Time(i), func(now Time) { fired = append(fired, now) })
	}
	s.Run()
	if len(fired) != 8 {
		t.Fatalf("fired %d events, want 8", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order: %v", fired)
		}
	}
	if s2 := NewScheduler(-3); s2.Pending() != 0 || s2.Now() != 0 {
		t.Fatal("negative capacity hint not treated as zero")
	}
}
