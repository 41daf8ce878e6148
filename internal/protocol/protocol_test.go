package protocol

import (
	"fmt"
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

// Every declared kind yields "flood-<KIND>" — the oracle switches on
// "flood-HELP" verbatim — from the shared table, without allocating; an
// undeclared kind still gets a well-formed text.
func TestFloodInfo(t *testing.T) {
	if FloodInfo(Help) != "flood-HELP" {
		t.Fatalf("HELP floods trace as %q; check.Oracle matches on flood-HELP", FloodInfo(Help))
	}
	if numKinds != DHTFound+1 {
		t.Fatalf("numKinds = %d is not one past the last declared kind", numKinds)
	}
	for k := Kind(0); k < numKinds; k++ {
		if got, want := FloodInfo(k), "flood-"+k.String(); got != want {
			t.Errorf("FloodInfo(%v) = %q, want %q", k, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for k := Kind(0); k < numKinds; k++ {
			_ = FloodInfo(k)
		}
	}); allocs != 0 {
		t.Errorf("FloodInfo allocates %.1f times over the declared kinds, want 0", allocs)
	}
	if got := FloodInfo(numKinds); got != "flood-"+numKinds.String() {
		t.Errorf("undeclared kind traces as %q", got)
	}
	if got := FloodInfo(-1); got != "flood-Kind(-1)" {
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

// refPledgeList is PledgeList as it was before ranking moved to read
// time: the slice is kept in better() order on every write, a refresh
// or Debit moving its entry to the new rank by a binary search and a
// shift over the span in between. It is the specification the
// rank-on-read list is tested against.
type refPledgeList struct {
	ttl     sim.Time
	entries []Candidate // better()-sorted, best first
	log     WriteLog
}

func (l *refPledgeList) find(id topology.NodeID) int {
	for i := range l.entries {
		if l.entries[i].ID == id {
			return i
		}
	}
	return -1
}

func (l *refPledgeList) removeAt(i int) {
	copy(l.entries[i:], l.entries[i+1:])
	l.entries = l.entries[:len(l.entries)-1]
}

// rank returns the index in entries[lo:hi] before which c belongs.
func (l *refPledgeList) rank(c Candidate, lo, hi int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if better(c, l.entries[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (l *refPledgeList) insert(c Candidate) {
	lo := l.rank(c, 0, len(l.entries))
	l.entries = append(l.entries, Candidate{})
	copy(l.entries[lo+1:], l.entries[lo:])
	l.entries[lo] = c
	l.log.Note(c.ID)
}

func (l *refPledgeList) replaceAt(i int, c Candidate) {
	l.log.Note(c.ID)
	if i > 0 && better(c, l.entries[i-1]) {
		j := l.rank(c, 0, i-1)
		copy(l.entries[j+1:i+1], l.entries[j:i])
		l.entries[j] = c
		return
	}
	j := l.rank(c, i+1, len(l.entries)) - 1
	copy(l.entries[i:j], l.entries[i+1:j+1])
	l.entries[j] = c
}

func (l *refPledgeList) UpdateAt(at sim.Time, from topology.NodeID, headroom float64) {
	i := l.find(from)
	if headroom <= 0 {
		if i >= 0 {
			l.removeAt(i)
		}
		return
	}
	c := Candidate{ID: from, Headroom: headroom, At: at}
	if i >= 0 {
		l.replaceAt(i, c)
	} else {
		l.insert(c)
	}
}

func (l *refPledgeList) Remove(id topology.NodeID) {
	if i := l.find(id); i >= 0 {
		l.removeAt(i)
	}
}

func (l *refPledgeList) Debit(id topology.NodeID, size float64) {
	i := l.find(id)
	if i < 0 {
		return
	}
	c := l.entries[i]
	c.Headroom -= size
	if c.Headroom <= 0 {
		l.removeAt(i)
		return
	}
	l.replaceAt(i, c)
}

func (l *refPledgeList) Get(id topology.NodeID) (Candidate, bool) {
	if i := l.find(id); i >= 0 {
		return l.entries[i], true
	}
	return Candidate{}, false
}

func (l *refPledgeList) expire(now sim.Time) {
	k := 0
	for _, c := range l.entries {
		if now-c.At < l.ttl {
			l.entries[k] = c
			k++
		}
	}
	l.entries = l.entries[:k]
}

func (l *refPledgeList) Len(now sim.Time) int {
	l.expire(now)
	return len(l.entries)
}

func (l *refPledgeList) Best(now sim.Time, size float64) (Candidate, bool) {
	l.expire(now)
	if len(l.entries) > 0 && l.entries[0].Headroom >= size {
		return l.entries[0], true
	}
	return Candidate{}, false
}

func (l *refPledgeList) Snapshot(now sim.Time) []Candidate {
	l.expire(now)
	return slices.Clone(l.entries)
}

// pledgeOp is one step of a differential run: Kind picks update (twice
// as likely), debit or remove; Node and Val its arguments; Dt advances
// the clock and decides whether the step also expires both lists and
// whether it reads them through the public API.
type pledgeOp struct {
	Kind, Node, Val, Dt uint8
}

// bestSizes are the task sizes each read asks Best for: below, between
// and above the headrooms the ops write.
var bestSizes = []float64{0.5, 1, 2.5, 4, 10}

// diffPledgeOps replays ops on a PledgeList and on refPledgeList and
// returns the first difference. After every op it compares, without
// ranking the list under test, its entries as a set against the
// reference (and entry for entry whenever it is not dirty), Get for
// every node, and the write log's count and named IDs. At the steps
// Dt selects — so that several writes pile up between reads — it reads
// both through Snapshot, Each, Best and Len and compares the answers.
// Headrooms and timestamps come from small ranges so ties on both keys,
// moves in both directions and no-op moves occur.
func diffPledgeOps(ops []pledgeOp) error {
	got, want := NewPledgeList(6), &refPledgeList{ttl: 6}
	now := sim.Time(0)
	for step, o := range ops {
		now += sim.Time(o.Dt % 3)
		id := topology.NodeID(o.Node % 12)
		switch o.Kind % 4 {
		case 0, 1:
			h := float64(o.Val%6) - 1 // ≤ 0 retracts
			got.UpdateAt(now-sim.Time(o.Val%2), id, h)
			want.UpdateAt(now-sim.Time(o.Val%2), id, h)
		case 2:
			got.Debit(id, float64(o.Val%3))
			want.Debit(id, float64(o.Val%3))
		case 3:
			got.Remove(id)
			want.Remove(id)
		}
		if o.Dt%4 == 0 {
			got.expire(now)
			want.expire(now)
		}
		fail := func(what string, g, w any) error {
			return fmt.Errorf("step %d %+v: %s = %+v, want %+v", step, o, what, g, w)
		}
		ranked := slices.Clone(got.entries)
		slices.SortFunc(ranked, compare)
		if !slices.Equal(ranked, want.entries) {
			return fail("entries (ranked)", ranked, want.entries)
		}
		if !got.dirty && !slices.Equal(got.entries, want.entries) {
			return fail("entries (clean)", got.entries, want.entries)
		}
		for n := topology.NodeID(0); n < 12; n++ {
			gc, gok := got.Get(n)
			wc, wok := want.Get(n)
			if gc != wc || gok != wok {
				return fail(fmt.Sprintf("Get(%d)", n), gc, wc)
			}
		}
		if got.Log().Count() != want.log.Count() {
			return fail("Log().Count()", got.Log().Count(), want.log.Count())
		}
		for k := uint64(0); k < want.log.Count(); k++ {
			gid, gok := got.Log().Written(k)
			wid, wok := want.log.Written(k)
			if gid != wid || gok != wok {
				return fail(fmt.Sprintf("Written(%d)", k), gid, wid)
			}
		}
		if o.Dt&8 == 0 {
			continue
		}
		var each []Candidate
		got.Each(func(c Candidate) bool { each = append(each, c); return true })
		if !slices.Equal(each, want.entries) {
			return fail("Each order", each, want.entries)
		}
		for _, size := range bestSizes {
			gc, gok := got.Best(now, size)
			wc, wok := want.Best(now, size)
			if gc != wc || gok != wok {
				return fail(fmt.Sprintf("Best(%v)", size), gc, wc)
			}
		}
		if g, w := got.Snapshot(now), want.Snapshot(now); !slices.Equal(g, w) {
			return fail("Snapshot", g, w)
		}
		if g, w := got.Len(now), want.Len(now); g != w {
			return fail("Len", g, w)
		}
	}
	return nil
}

// Property: on random update / debit / remove / expire sequences with
// reads at random points, the rank-on-read list answers every read and
// names every write exactly as the always-ranked reference does — so
// Best, Snapshot, the oracle's Each walk and every RNG draw downstream
// of their order are unchanged.
func TestPledgeListMatchesReference(t *testing.T) {
	f := func(ops []pledgeOp) bool {
		if err := diffPledgeOps(ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The write log names every insert, refresh and Debit re-rank, newest
// last, and nothing for removals, retractions or expiry; a write that
// has left the log reads as gone.
func TestPledgeListWriteLogNamesWrites(t *testing.T) {
	l := NewPledgeList(10)
	l.Update(0, 4, 5) // insert
	l.Update(1, 6, 3) // insert
	l.Update(2, 4, 1) // refresh, re-ranked below 6
	l.Debit(6, 1)     // re-rank
	l.Remove(4)
	l.Update(3, 6, 0) // retraction
	l.Debit(9, 1)     // no entry
	l.Len(100)        // expiry
	log := l.Log()
	if log.Count() != 4 {
		t.Fatalf("log counts %d writes, want 4", log.Count())
	}
	for k, want := range map[uint64]topology.NodeID{2: 4, 3: 6} {
		if id, ok := log.Written(k); !ok || id != want {
			t.Errorf("write %d reads %d (%v), want %d", k, id, ok, want)
		}
	}
	for _, k := range []uint64{0, 1, 4} {
		if id, ok := log.Written(k); ok {
			t.Errorf("write %d reads %d, want it gone (log holds %d)", k, id, WriteLogSlots)
		}
	}
}

// PledgeList updates allocate nothing once the list has held its peak
// size: inserts, refreshes, Debits, retractions and removals all work in
// place, noting them in the write log is free, and so is the re-rank
// the next Best or Snapshot does.
func TestPledgeListUpdatesAllocateNothing(t *testing.T) {
	l := NewPledgeList(100)
	for i := 0; i < 32; i++ {
		l.Update(0, topology.NodeID(i), float64(i+1))
	}
	now := sim.Time(0)
	round := func() {
		now++
		for i := 0; i < 32; i++ {
			l.Update(now, topology.NodeID(i), float64((i*7+int(now))%32+1))
		}
		l.Debit(5, 0.5)
		l.Update(now, 9, 0)
		l.Remove(10)
		l.Update(now, 9, 3)
		l.UpdateAt(now-1, 10, 4)
		l.Best(now, 2)
		l.Update(now, 3, 7)
		l.Snapshot(now)
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("a round of pledge-list updates allocates %.1f times, want 0", allocs)
	}
}
