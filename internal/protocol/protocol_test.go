package protocol

import (
	"slices"
	"testing"
	"testing/quick"

	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Help: "HELP", Pledge: "PLEDGE", Advert: "ADVERT", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// Every declared kind yields "flood-<KIND>" / "reflood-<KIND>" — the
// oracle switches on the HELP pair verbatim — from the shared table,
// without allocating; an undeclared kind still gets a well-formed text.
func TestFloodInfo(t *testing.T) {
	if FloodInfo(Help, false) != "flood-HELP" || FloodInfo(Help, true) != "reflood-HELP" {
		t.Fatalf("HELP floods trace as %q / %q; check.Oracle matches on flood-HELP / reflood-HELP",
			FloodInfo(Help, false), FloodInfo(Help, true))
	}
	if numKinds != DHTFound+1 {
		t.Fatalf("numKinds = %d is not one past the last declared kind", numKinds)
	}
	for k := Kind(0); k < numKinds; k++ {
		if got, want := FloodInfo(k, false), "flood-"+k.String(); got != want {
			t.Errorf("FloodInfo(%v, false) = %q, want %q", k, got, want)
		}
		if got, want := FloodInfo(k, true), "reflood-"+k.String(); got != want {
			t.Errorf("FloodInfo(%v, true) = %q, want %q", k, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for k := Kind(0); k < numKinds; k++ {
			_, _ = FloodInfo(k, false), FloodInfo(k, true)
		}
	}); allocs != 0 {
		t.Errorf("FloodInfo allocates %.1f times over the declared kinds, want 0", allocs)
	}
	if got := FloodInfo(numKinds, true); got != "reflood-"+numKinds.String() {
		t.Errorf("undeclared kind traces as %q", got)
	}
	if got := FloodInfo(-1, false); got != "flood-Kind(-1)" {
		t.Errorf("negative kind traces as %q", got)
	}
}

func TestPledgeListUpdateAndBest(t *testing.T) {
	l := NewPledgeList(100)
	l.Update(0, 1, 30)
	l.Update(0, 2, 50)
	l.Update(0, 3, 10)
	best, ok := l.Best(1, 5)
	if !ok || best.ID != 2 {
		t.Fatalf("best = %+v ok=%v, want node 2", best, ok)
	}
	// Only node 2 can fit a 40-second task.
	best, ok = l.Best(1, 40)
	if !ok || best.ID != 2 {
		t.Fatalf("best(40) = %+v, want node 2", best)
	}
	// Nothing fits 60 seconds.
	if _, ok = l.Best(1, 60); ok {
		t.Fatal("found candidate for oversized task")
	}
}

func TestPledgeListRetraction(t *testing.T) {
	l := NewPledgeList(100)
	l.Update(0, 1, 30)
	l.Update(1, 1, 0) // retraction: node became busy
	if l.Len(1) != 0 {
		t.Fatal("retraction did not remove entry")
	}
}

func TestPledgeListTTLExpiry(t *testing.T) {
	l := NewPledgeList(10)
	l.Update(0, 1, 30)
	l.Update(5, 2, 30)
	if l.Len(9) != 2 {
		t.Fatal("entries expired early")
	}
	if l.Len(12) != 1 {
		t.Fatalf("len at t=12 is %d, want 1 (node 1 expired)", l.Len(12))
	}
	if l.Len(20) != 0 {
		t.Fatal("entries survived past TTL")
	}
}

func TestPledgeListRefreshExtendsLife(t *testing.T) {
	l := NewPledgeList(10)
	l.Update(0, 1, 30)
	l.Update(8, 1, 25) // refresh
	if l.Len(15) != 1 {
		t.Fatal("refreshed entry expired from old timestamp")
	}
	c, ok := l.Best(15, 1)
	if !ok || c.Headroom != 25 {
		t.Fatalf("refresh did not update headroom: %+v", c)
	}
}

func TestPledgeListDebit(t *testing.T) {
	l := NewPledgeList(100)
	l.Update(0, 1, 30)
	l.Debit(1, 10)
	c, _ := l.Best(1, 1)
	if c.Headroom != 20 {
		t.Fatalf("headroom after debit %v, want 20", c.Headroom)
	}
	l.Debit(1, 25) // over-debit drops the entry
	if l.Len(1) != 0 {
		t.Fatal("over-debited entry survived")
	}
	l.Debit(42, 1) // unknown node is a no-op
}

func TestPledgeListRemove(t *testing.T) {
	l := NewPledgeList(100)
	l.Update(0, 1, 30)
	l.Remove(1)
	if l.Len(0) != 0 {
		t.Fatal("removed entry survived")
	}
}

func TestPledgeListTieBreaks(t *testing.T) {
	l := NewPledgeList(100)
	l.Update(5, 3, 30)
	l.Update(9, 7, 30) // same headroom, fresher
	best, _ := l.Best(10, 1)
	if best.ID != 7 {
		t.Fatalf("freshness tie-break failed: got node %d", best.ID)
	}
	l2 := NewPledgeList(100)
	l2.Update(5, 9, 30)
	l2.Update(5, 2, 30) // same headroom, same time: lowest ID wins
	best, _ = l2.Best(10, 1)
	if best.ID != 2 {
		t.Fatalf("ID tie-break failed: got node %d", best.ID)
	}
}

func TestSnapshotSorted(t *testing.T) {
	l := NewPledgeList(100)
	l.Update(0, 1, 10)
	l.Update(0, 2, 50)
	l.Update(0, 3, 30)
	snap := l.Snapshot(1)
	if len(snap) != 3 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Headroom > snap[i-1].Headroom {
			t.Fatalf("snapshot not sorted: %+v", snap)
		}
	}
}

func TestNewPledgeListInvalidTTL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPledgeList(0)
}

// Property: after arbitrary updates, every surviving entry is fresh, has
// positive headroom, and Best returns the max-headroom fitting entry.
func TestQuickPledgeListInvariants(t *testing.T) {
	type op struct {
		Node     uint8
		Headroom int8
		Dt       uint8
	}
	f := func(ops []op) bool {
		l := NewPledgeList(50)
		now := sim.Time(0)
		for _, o := range ops {
			now += sim.Time(o.Dt) / 4
			l.Update(now, topology.NodeID(o.Node%20), float64(o.Headroom))
		}
		snap := l.Snapshot(now)
		var maxFit float64
		for _, c := range snap {
			if c.Headroom <= 0 || now-c.At > 50 {
				return false
			}
			if c.Headroom >= 5 && c.Headroom > maxFit {
				maxFit = c.Headroom
			}
		}
		best, ok := l.Best(now, 5)
		if maxFit == 0 {
			return !ok
		}
		return ok && best.Headroom == maxFit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelPaperMesh(t *testing.T) {
	cm := NewCostModel(topology.Mesh(5, 5))
	if cm.FloodUnits != 40 {
		t.Fatalf("flood units %v, want 40", cm.FloodUnits)
	}
	if cm.UnicastUnits != 4 {
		t.Fatalf("unicast units %v, want 4 (paper's rounded mean path)", cm.UnicastUnits)
	}
	if cm.ControlUnits != 8 {
		t.Fatalf("control units %v, want 8", cm.ControlUnits)
	}
}

func TestCostModelComplete(t *testing.T) {
	cm := NewCostModel(topology.Complete(5))
	if cm.UnicastUnits != 1 {
		t.Fatalf("unicast on K5 = %v, want 1", cm.UnicastUnits)
	}
	if cm.FloodUnits != 10 {
		t.Fatalf("flood on K5 = %v, want 10", cm.FloodUnits)
	}
}

func TestCostModelRandomGraphs(t *testing.T) {
	s := rng.New(3)
	for i := 0; i < 10; i++ {
		g := topology.Random(20, 0.1, s)
		cm := NewCostModel(g)
		if cm.FloodUnits != float64(g.Links()) {
			t.Fatal("flood units != link count")
		}
		if cm.UnicastUnits < 1 {
			t.Fatal("unicast units below 1")
		}
		if cm.ControlUnits != 2*cm.UnicastUnits {
			t.Fatal("control units != 2 unicasts")
		}
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateCatches(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.Threshold = 0 },
		func(c *Config) { c.Threshold = 1.5 },
		func(c *Config) { c.PushInterval = 0 },
		func(c *Config) { c.HelpInit = 0 },
		func(c *Config) { c.HelpUpper = 0.5 },
		func(c *Config) { c.HelpMin = 0 },
		func(c *Config) { c.HelpMin = 2 },
		func(c *Config) { c.Alpha = -1 },
		func(c *Config) { c.Beta = 1 },
		func(c *Config) { c.PledgeWait = 0 },
		func(c *Config) { c.EntryTTL = 0 },
		func(c *Config) { c.MembershipTTL = -1 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("mutation %d: invalid config passed validation", i)
		}
	}
}

// updateAtRef and debitRef are UpdateAt and Debit as they were before
// replaceAt: take the entry out, put the new one in. They are the
// specification the in-place move is tested against.
func updateAtRef(l *PledgeList, at sim.Time, from topology.NodeID, headroom float64) {
	if i := l.find(from); i >= 0 {
		l.removeAt(i)
	}
	if headroom <= 0 {
		return
	}
	l.insert(Candidate{ID: from, Headroom: headroom, At: at})
}

func debitRef(l *PledgeList, id topology.NodeID, size float64) {
	i := l.find(id)
	if i < 0 {
		return
	}
	c := l.entries[i]
	l.removeAt(i)
	c.Headroom -= size
	if c.Headroom <= 0 {
		return
	}
	l.insert(c)
}

// Property: on random update / debit / remove / expire sequences the
// in-place move leaves the list entry for entry where remove-then-insert
// leaves it — so Best, Snapshot and every RNG draw downstream of their
// order are unchanged. Headrooms and timestamps come from small ranges
// so ties on both keys, moves in both directions and no-op moves occur.
func TestPledgeListMoveMatchesRemoveInsert(t *testing.T) {
	type op struct {
		Kind, Node, Val, Dt uint8
	}
	f := func(ops []op) bool {
		got, want := NewPledgeList(6), NewPledgeList(6)
		now := sim.Time(0)
		for _, o := range ops {
			now += sim.Time(o.Dt % 3)
			id := topology.NodeID(o.Node % 12)
			switch o.Kind % 4 {
			case 0, 1:
				h := float64(o.Val%6) - 1 // ≤ 0 retracts
				got.UpdateAt(now-sim.Time(o.Val%2), id, h)
				updateAtRef(want, now-sim.Time(o.Val%2), id, h)
			case 2:
				got.Debit(id, float64(o.Val%3))
				debitRef(want, id, float64(o.Val%3))
			case 3:
				got.Remove(id)
				want.Remove(id)
			}
			if o.Dt%4 == 0 {
				got.expire(now)
				want.expire(now)
			}
			if !slices.Equal(got.entries, want.entries) {
				t.Logf("after %+v:\n got %+v\nwant %+v", o, got.entries, want.entries)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
