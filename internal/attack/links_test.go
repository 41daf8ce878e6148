package attack

import (
	"testing"

	"realtor/internal/sim"
	"realtor/internal/topology"
)

func TestLinkCutAndRestoreTimeline(t *testing.T) {
	e := newEngine(false, nil)
	links := [][2]topology.NodeID{{0, 1}, {5, 6}}
	LinkCut{Links: links, At: 100, Restore: 300}.Apply(e)
	e.Scheduler().At(150, func(sim.Time) {
		for _, l := range links {
			if e.Graph().HasLink(l[0], l[1]) {
				t.Errorf("link %v still up during cut window", l)
			}
		}
	})
	e.Scheduler().At(350, func(sim.Time) {
		for _, l := range links {
			if !e.Graph().HasLink(l[0], l[1]) {
				t.Errorf("link %v not restored", l)
			}
		}
	})
	e.Run(poisson(2, 1))
}

// LinkCut must only restore links it actually cut: a link severed by an
// earlier permanent cut stays down even when a later overlapping
// cut-and-restore window closes.
func TestLinkCutRestoreIsScopedToItsOwnCuts(t *testing.T) {
	e := newEngine(false, nil)
	permanent := LinkCut{Links: [][2]topology.NodeID{{0, 1}}, At: 50} // never restored
	window := LinkCut{Links: [][2]topology.NodeID{{0, 1}, {5, 6}}, At: 100, Restore: 200}
	permanent.Apply(e)
	window.Apply(e)
	e.Scheduler().At(250, func(sim.Time) {
		if e.Graph().HasLink(0, 1) {
			t.Error("window restore resurrected a link the permanent cut owns")
		}
		if !e.Graph().HasLink(5, 6) {
			t.Error("window did not restore its own link {5,6}")
		}
	})
	e.Run(poisson(2, 1))
}

func TestPartitionSplitsAndHeals(t *testing.T) {
	e := newEngine(false, nil)
	p := Partition{Rows: 5, Cols: 5, Col: 2, At: 100, Heal: 300}
	if got := len(p.Links()); got != 5 {
		t.Fatalf("partition cuts %d links, want 5", got)
	}
	p.Apply(e)
	e.Scheduler().At(150, func(sim.Time) {
		g := e.Graph()
		if g.Connected() {
			t.Error("overlay connected mid-split")
		}
		left := g.ComponentOf(0)
		if len(left) != 10 {
			t.Errorf("left side has %d nodes, want 10", len(left))
		}
		for _, id := range left {
			if !p.Left(id) {
				t.Errorf("node %d in left component but Left()==false", id)
			}
		}
		if len(g.ComponentOf(2)) != 15 {
			t.Errorf("right side has %d nodes, want 15", len(g.ComponentOf(2)))
		}
	})
	e.Scheduler().At(350, func(sim.Time) {
		if !e.Graph().Connected() {
			t.Error("overlay not reconnected after heal")
		}
	})
	st := e.Run(poisson(5, 1))
	if st.PartitionDrops == 0 {
		t.Error("no partition drops during a 200s split at λ=5")
	}
}

func TestPartitionValidatesBoundary(t *testing.T) {
	for _, col := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Col=%d accepted", col)
				}
			}()
			Partition{Rows: 5, Cols: 5, Col: col}.Links()
		}()
	}
}

// LinkChurn is deterministic for a fixed seed and always returns the
// overlay to full strength once every down-window has elapsed.
func TestLinkChurnDeterministicAndHeals(t *testing.T) {
	run := func() (int, [][2]topology.NodeID) {
		e := newEngine(false, nil)
		LinkChurn{Start: 100, Until: 400, Interval: 10, Down: 25, Seed: 7}.Apply(e)
		min := 40
		e.Scheduler().NewTicker(5, func(sim.Time) {
			if l := e.Graph().Links(); l < min {
				min = l
			}
		})
		e.Run(poisson(3, 2))
		return min, e.Graph().LinkList()
	}
	min1, final1 := run()
	min2, final2 := run()
	if min1 != min2 {
		t.Fatalf("churn not deterministic: min links %d vs %d", min1, min2)
	}
	if min1 >= 40 {
		t.Fatal("churn never cut a link")
	}
	if len(final1) != 40 || len(final2) != 40 {
		t.Fatalf("overlay not healed after churn: %d / %d links", len(final1), len(final2))
	}
}

// Pinned semantics (see Flap's doc): a flap window ending mid-down
// leaves the node dead for the rest of the run.
func TestFlapEndingMidDownLeavesNodeDead(t *testing.T) {
	e := newEngine(true, nil)
	// Downs at t=10 and t=20; up at t=15; the up at t=25 is ≥ Until=22
	// and is never scheduled — the node stays dead.
	Flap{Target: 3, Start: 10, DownFor: 5, UpFor: 5, Until: 22}.Apply(e)
	e.Scheduler().At(17, func(sim.Time) {
		if !e.Node(3).Alive() {
			t.Error("node dead during the up window")
		}
	})
	e.Scheduler().RunUntil(100)
	if e.Node(3).Alive() {
		t.Fatal("node revived after a flap window that ended mid-down")
	}
}
