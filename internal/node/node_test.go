package node

import (
	"math"
	"testing"
	"testing/quick"

	"realtor/internal/rng"
	"realtor/internal/sim"
)

func TestNewNodeEmpty(t *testing.T) {
	n := New(3, 100)
	if n.ID() != 3 || n.Capacity() != 100 {
		t.Fatal("constructor fields wrong")
	}
	if n.Backlog(0) != 0 || n.Usage(0) != 0 || n.Headroom(0) != 100 {
		t.Fatal("fresh node not empty")
	}
	if !n.Alive() {
		t.Fatal("fresh node not alive")
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0)
}

func TestAcceptAndDrain(t *testing.T) {
	n := New(0, 100)
	if !n.Accept(0, 10) {
		t.Fatal("accept failed on empty node")
	}
	if got := n.Backlog(0); got != 10 {
		t.Fatalf("backlog %v, want 10", got)
	}
	if got := n.Backlog(4); got != 6 {
		t.Fatalf("backlog after 4s drain %v, want 6", got)
	}
	if got := n.Backlog(100); got != 0 {
		t.Fatalf("backlog after long drain %v, want 0", got)
	}
}

func TestAcceptAtCapacityBoundary(t *testing.T) {
	n := New(0, 100)
	if !n.Accept(0, 100) {
		t.Fatal("task exactly filling queue rejected")
	}
	if n.Accept(0, 0.001) {
		t.Fatal("task beyond capacity accepted")
	}
	if n.Backlog(0) != 100 {
		t.Fatalf("refused task changed the backlog to %v", n.Backlog(0))
	}
}

func TestZeroSizeTaskPanics(t *testing.T) {
	n := New(0, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Accept(0, 0)
}

func TestUsageAndThreshold(t *testing.T) {
	n := New(0, 100)
	n.Accept(0, 85)
	if u := n.Usage(0); u != 0.85 {
		t.Fatalf("usage %v", u)
	}
	if n.WouldExceed(0, 4, 0.9) {
		t.Fatal("85+4 should not exceed 90")
	}
	if !n.WouldExceed(0, 6, 0.9) {
		t.Fatal("85+6 should exceed 90")
	}
}

func TestTimeMovesBackwardPanics(t *testing.T) {
	n := New(0, 100)
	n.Accept(10, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Backlog(5)
}

func TestKillDiscardsBacklogAndRefusesWork(t *testing.T) {
	n := New(0, 100)
	n.Accept(0, 50)
	n.Kill(1)
	if n.Alive() {
		t.Fatal("killed node alive")
	}
	if n.Headroom(1) != 0 {
		t.Fatal("dead node reports headroom")
	}
	if n.Accept(2, 1) {
		t.Fatal("dead node accepted a task")
	}
	n.Revive(5)
	if !n.Alive() || n.Backlog(5) != 0 {
		t.Fatal("revive did not restore empty alive node")
	}
	if !n.Accept(5, 1) {
		t.Fatal("revived node rejected a fitting task")
	}
}

// Property: for any sequence of accepts and drains, backlog stays within
// [0, capacity], headroom is the exact complement, and Fits agrees with
// Accept.
func TestQuickQueueInvariants(t *testing.T) {
	type step struct {
		Dt   uint8
		Size uint8
	}
	f := func(steps []step) bool {
		n := New(0, 100)
		now := sim.Time(0)
		for _, st := range steps {
			now += sim.Time(st.Dt) / 4
			size := float64(st.Size)/8 + 0.01
			fits := n.Fits(now, size)
			got := n.Accept(now, size)
			if fits != got {
				return false
			}
			b := n.Backlog(now)
			if b < 0 || b > 100+1e-9 {
				return false
			}
			if math.Abs(n.Headroom(now)-(100-b)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the analytic drain matches an explicit step-by-step
// simulation of the same arrivals.
func TestQuickAnalyticMatchesStepwise(t *testing.T) {
	s := rng.New(44)
	for trial := 0; trial < 50; trial++ {
		n := New(0, 100)
		explicit := 0.0
		now := sim.Time(0)
		for i := 0; i < 100; i++ {
			dt := s.Exp(1)
			now += sim.Time(dt)
			explicit -= dt
			if explicit < 0 {
				explicit = 0
			}
			size := s.Exp(5)
			if n.Accept(now, size) {
				explicit += size
			} else if explicit+size <= 100 {
				t.Fatalf("trial %d: model rejected (backlog %v) but explicit had room (%v)",
					trial, n.Backlog(now), explicit)
			}
			if math.Abs(n.Backlog(now)-explicit) > 1e-6 {
				t.Fatalf("trial %d: analytic %v vs explicit %v", trial, n.Backlog(now), explicit)
			}
		}
	}
}

func BenchmarkAcceptDrain(b *testing.B) {
	n := New(0, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i)
		n.Accept(now, 0.5)
	}
}
