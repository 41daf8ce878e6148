package check

import (
	"fmt"
	"reflect"
	"testing"

	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// scriptWorld is a World whose protocol instances the test drives by
// hand: real core.Realtor (or overlay) state on the scripted nodes,
// protocoltest.Inert everywhere else, no link overlay.
type scriptWorld struct {
	n     int
	nodes map[topology.NodeID]protocol.Discovery
}

func (w *scriptWorld) N() int                                     { return w.n }
func (w *scriptWorld) Alive(topology.NodeID) bool                 { return true }
func (w *scriptWorld) Usage(topology.NodeID, sim.Time) float64    { return 0 }
func (w *scriptWorld) Headroom(topology.NodeID, sim.Time) float64 { return 0 }
func (w *scriptWorld) Capacity(topology.NodeID) float64           { return 1 }
func (w *scriptWorld) Graph() *topology.Graph                     { return nil }
func (w *scriptWorld) Discovery(id topology.NodeID) protocol.Discovery {
	if d, ok := w.nodes[id]; ok {
		return d
	}
	return protocoltest.Inert{}
}

// scriptNode is one hand-driven REALTOR instance and its clock.
type scriptNode struct {
	id  topology.NodeID
	env *protocoltest.FakeEnv
	r   *core.Realtor
}

func (w *scriptWorld) realtor(id topology.NodeID, cfg protocol.Config) *scriptNode {
	env := protocoltest.New(id, 10)
	r := core.New(cfg)
	r.Attach(env)
	w.nodes[id] = r
	return &scriptNode{id: id, env: env, r: r}
}

// deliver is what a backend does with an incoming message: the observer
// sees it first, then the protocol. seen = false hides the delivery
// from the oracle — the forged history the I4 audits exist to catch.
func (n *scriptNode) deliver(o *Oracle, at sim.Time, m protocol.Message, seen bool) {
	n.env.Clock = at
	if seen {
		o.OnDeliver(at, n.id, m)
	}
	n.r.Deliver(m)
}

func pledge(from topology.NodeID, headroom float64) protocol.Message {
	return protocol.Message{Kind: protocol.Pledge, From: from, Headroom: headroom}
}

func help(from topology.NodeID) protocol.Message {
	return protocol.Message{Kind: protocol.Help, From: from}
}

func wantViolations(t *testing.T, o *Oracle, want []Violation) {
	t.Helper()
	got := o.Violations()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("violations differ from the pinned list:\n got:")
		for _, v := range got {
			t.Logf("   %#v", v)
		}
		t.Logf(" want:")
		for _, v := range want {
			t.Logf("   %#v", v)
		}
	}
	if o.Dropped() != 0 {
		t.Errorf("%d violations dropped past the cap", o.Dropped())
	}
}

// Every branch of both I4 audits fires at the same instant, on the same
// entry, with the same text as at the commit that introduced the audits
// (list pinned from the struct-keyed tables). The node IDs straddle
// 2¹⁶ and 10⁵, about the size of A2-L's top rung (316² = 99 856
// nodes), and every relationship also exists in the opposite
// direction, so a key that mixed up (a,b) with (b,a), or folded high ID
// bits, would either miss a violation or invent one.
func TestI4ProvenanceViolationsArePinned(t *testing.T) {
	const (
		a topology.NodeID = 65535
		b topology.NodeID = 65536
		c topology.NodeID = 99999
		d topology.NodeID = 100000
	)
	cfg := protocol.DefaultConfig()
	cfg.EntryTTL, cfg.MembershipTTL, cfg.MaxMemberships = 50, 20, 4
	w := &scriptWorld{n: 100001, nodes: map[topology.NodeID]protocol.Discovery{}}
	na, nb := w.realtor(a, cfg), w.realtor(b, cfg)
	o := NewWorldOracle(w)

	// Honest history in both directions between a and b, and c→a.
	na.deliver(o, 1, pledge(b, 4), true)
	nb.deliver(o, 1, pledge(a, 7), true)
	na.deliver(o, 2, pledge(c, 3), true)
	na.deliver(o, 3, help(b), true)
	nb.deliver(o, 3, help(a), true)
	if len(o.Violations()) != 0 {
		t.Fatalf("honest prefix flagged: %v", o.Violations())
	}

	// a's list gains an entry for d the oracle never saw delivered —
	// though d→b was (the transposed and neighbouring pairs exist).
	nb.deliver(o, 4, pledge(d, 9), true)
	na.deliver(o, 4, pledge(d, 9), false)
	// a's entry for c is restamped and raised behind the oracle's back.
	na.deliver(o, 5, pledge(c, 8), false)
	na.deliver(o, 6, pledge(b, 4), true) // audit fires here: d missing, c restamped
	// Now the stamp matches but the headroom exceeds what was delivered.
	na.deliver(o, 7, pledge(c, 2), true)
	na.r.Deliver(pledge(c, 5)) // same instant, unseen: stamp 7, headroom 5 > 2
	na.deliver(o, 8, pledge(b, 4), true)

	// Member side: b joins c's community unseen; a's membership in b is
	// refreshed unseen, pushing its join instant past the HELP span.
	nb.deliver(o, 9, help(c), false)
	na.deliver(o, 10, help(b), false)
	nb.deliver(o, 11, help(a), true) // audits b: c unjustified
	na.deliver(o, 12, help(b), true) // audits a: join 10 outside [3,3]

	wantViolations(t, o, []Violation{
		{At: 6, Invariant: "I4-provenance", Node: a, Detail: "pledge-list entry for node 100000 with no delivered pledge behind it"},
		{At: 6, Invariant: "I4-provenance", Node: a, Detail: "entry for node 99999 stamped t=5 but last delivered pledge was t=2"},
		{At: 7, Invariant: "I4-provenance", Node: a, Detail: "pledge-list entry for node 100000 with no delivered pledge behind it"},
		{At: 7, Invariant: "I4-provenance", Node: a, Detail: "entry for node 99999 stamped t=5 but last delivered pledge was t=2"},
		{At: 8, Invariant: "I4-provenance", Node: a, Detail: "pledge-list entry for node 100000 with no delivered pledge behind it"},
		{At: 8, Invariant: "I4-provenance", Node: a, Detail: "entry for node 99999 advertises headroom 5 > delivered 2"},
		{At: 11, Invariant: "I4-provenance", Node: b, Detail: "membership in community 99999 with no delivered HELP behind it"},
		{At: 12, Invariant: "I4-provenance", Node: a, Detail: "membership in community 65536 joined at t=10 outside HELP span [3, 3]"},
	})
}

// scriptOverlay is an OverlayState the test fills in by hand.
type scriptOverlay struct {
	protocoltest.Inert
	cands []protocol.Candidate
	dir   []protocol.Candidate
}

func (s *scriptOverlay) EachOverlayCandidate(fn func(protocol.Candidate)) {
	for _, c := range s.cands {
		fn(c)
	}
}

func (s *scriptOverlay) EachDirectoryEntry(fn func(int, protocol.Candidate)) {
	for _, c := range s.dir {
		fn(0, c)
	}
}

// The I4-overlay audits, same contract: home/provider and node/candidate
// relationships in both directions, every failure branch pinned.
func TestI4OverlayViolationsArePinned(t *testing.T) {
	const (
		a topology.NodeID = 65535
		b topology.NodeID = 65536
		c topology.NodeID = 100000
	)
	sa, sb := &scriptOverlay{}, &scriptOverlay{}
	w := &scriptWorld{n: 100001, nodes: map[topology.NodeID]protocol.Discovery{a: sa, b: sb}}
	o := NewWorldOracle(w)
	put := func(origin topology.NodeID, h float64) protocol.Message {
		return protocol.Message{Kind: protocol.DHTPut, From: origin, Origin: origin, Headroom: h}
	}
	found := func(from topology.NodeID, view ...protocol.Candidate) protocol.Message {
		return protocol.Message{Kind: protocol.DHTFound, From: from, View: view}
	}

	// Honest: b PUTs 4 to home a, a PUTs 6 to home b; a answers c's
	// lookup with b's entry; both homes store what they were sent.
	o.OnDeliver(1, a, put(b, 4))
	o.OnDeliver(1, b, put(a, 6))
	sa.dir = []protocol.Candidate{{ID: b, Headroom: 4}, {ID: a, Headroom: 1}}
	sb.dir = []protocol.Candidate{{ID: a, Headroom: 6}}
	o.OnDeliver(2, b, found(a, protocol.Candidate{ID: b, Headroom: 4}, protocol.Candidate{ID: a, Headroom: 1}))
	sb.cands = []protocol.Candidate{{ID: a, Headroom: 6}, {ID: b, Headroom: 9}}
	o.OnDeliver(3, b, put(a, 6))
	if len(o.Violations()) != 0 {
		t.Fatalf("honest prefix flagged: %v", o.Violations())
	}

	// Forged: a's directory inflates b and invents c; a's answer carries
	// both; b caches c from nowhere and a above anything delivered.
	sa.dir = []protocol.Candidate{{ID: b, Headroom: 5}, {ID: c, Headroom: 2}}
	o.OnDeliver(4, a, put(b, 3))
	o.OnDeliver(5, b, found(a, protocol.Candidate{ID: b, Headroom: 5}, protocol.Candidate{ID: c, Headroom: 2}))
	sb.cands = []protocol.Candidate{{ID: a, Headroom: 6.5}, {ID: c, Headroom: 3}, {ID: 7, Headroom: 1}}
	o.OnDeliver(6, b, put(a, 1))

	wantViolations(t, o, []Violation{
		{At: 4, Invariant: "I4-overlay", Node: a, Detail: "band-0 directory entry for node 65536 advertises headroom 5 > delivered 4"},
		{At: 4, Invariant: "I4-overlay", Node: a, Detail: "band-0 directory entry for node 100000 with no delivered PUT behind it"},
		{At: 5, Invariant: "I4-overlay", Node: a, Detail: "FOUND answer advertises node 65536 headroom 5 > delivered 4"},
		{At: 5, Invariant: "I4-overlay", Node: a, Detail: "FOUND answer carries candidate 100000 with no delivered PUT at the answering home"},
		{At: 6, Invariant: "I4-overlay", Node: b, Detail: "cached candidate 65535 advertises headroom 6.5 > delivered 6"},
		{At: 6, Invariant: "I4-overlay", Node: b, Detail: "cached candidate 100000 advertises headroom 3 > delivered 2"},
		{At: 6, Invariant: "I4-overlay", Node: b, Detail: "cached candidate 7 with no delivered FOUND or PUT behind it"},
	})
}

// A pairTable keeps every directed pair apart: transposed pairs, IDs
// that differ only above bit 16, and IDs around A2-L's top rung
// (316² = 99 856 nodes).
func TestPairTableKeepsDirectedPairsApart(t *testing.T) {
	ids := []topology.NodeID{0, 1, 2, 65534, 65535, 65536, 65537, 99999, 100000, 131072}
	tbl := make(pairTable[int], 131073)
	want := map[[2]topology.NodeID]int{}
	for i, a := range ids {
		for j, b := range ids {
			v := 1 + i*len(ids) + j
			tbl.put(a, b, v)
			want[[2]topology.NodeID{a, b}] = v
		}
	}
	for k, v := range want {
		if got, ok := tbl.get(k[0], k[1]); !ok || got != v {
			t.Errorf("pair (%d,%d) reads %d (present %v), want %d", k[0], k[1], got, ok, v)
		}
	}
	if _, ok := tbl.get(3, 4); ok {
		t.Error("a pair never written reads as present")
	}
	if _, ok := tbl.get(ids[0], 3); ok {
		t.Error("a peer never written reads as present in a full row")
	}
}

// pairTable rows against Go maps: random writes and reads over a few
// rows, through growth from the first slot array to hundreds of
// records, with rows cleared now and then.
func TestPairTableMatchesMap(t *testing.T) {
	const rows = 4
	tbl := make(pairTable[int], rows)
	want := make([]map[topology.NodeID]int, rows)
	for i := range want {
		want[i] = map[topology.NodeID]int{}
	}
	r := rng.New(5)
	for step := 0; step < 20000; step++ {
		a, b := topology.NodeID(r.Intn(rows)), topology.NodeID(r.Intn(700))
		switch k := r.Intn(100); {
		case k == 0:
			tbl.clear(a)
			want[a] = map[topology.NodeID]int{}
		case k < 50:
			tbl.put(a, b, step)
			want[a][b] = step
		default:
			got, ok := tbl.get(a, b)
			w, wok := want[a][b]
			if ok != wok || got != w {
				t.Fatalf("step %d: (%d,%d) reads %d/%v, want %d/%v", step, a, b, got, ok, w, wok)
			}
		}
	}
	for a := range want {
		if int(tbl[a].n) != len(want[a]) {
			t.Errorf("row %d holds %d records, want %d", a, tbl[a].n, len(want[a]))
		}
	}
}

// A dead incarnation's deliveries justify nothing: once a node is
// killed, its revived instance may not hold an entry stamped to a
// PLEDGE, or a membership joined on a HELP, that only its predecessor
// received. Unless NodeKill clears the node's records, both pass.
func TestI4ForgetsDeadIncarnation(t *testing.T) {
	const a, b, c topology.NodeID = 1, 2, 3
	cfg := protocol.DefaultConfig()
	w := &scriptWorld{n: 4, nodes: map[topology.NodeID]protocol.Discovery{}}
	dead := w.realtor(a, cfg)
	o := NewWorldOracle(w)
	dead.deliver(o, 1, pledge(b, 4), true)
	dead.deliver(o, 1, help(c), true)
	o.Record(trace.Event{At: 2, Kind: trace.NodeKill, Node: a, Peer: -1})
	dead.r.OnNodeDeath()
	o.Record(trace.Event{At: 3, Kind: trace.NodeRevive, Node: a, Peer: -1})

	// The fresh instance holds exactly what the dead one was sent.
	fresh := w.realtor(a, cfg)
	fresh.deliver(o, 1, pledge(b, 4), false)
	fresh.deliver(o, 1, help(c), false)
	fresh.deliver(o, 4, pledge(c, 2), true) // audits a's list
	fresh.deliver(o, 5, help(b), true)      // audits a's memberships

	wantViolations(t, o, []Violation{
		{At: 4, Invariant: "I4-provenance", Node: a, Detail: "pledge-list entry for node 2 with no delivered pledge behind it"},
		{At: 5, Invariant: "I4-provenance", Node: a, Detail: "membership in community 3 with no delivered HELP behind it"},
	})
}

// The oracle reads a node's instance, and the limits it audits by, once
// and keeps them in the node's cursor until the node dies or revives.
// A revived node runs a fresh instance with its own configuration, so
// its audits must read that instance — here an EntryTTL of 5 against
// the dead one's 50 — even when something read the node while it was
// dead (the HELP flood at t=35). Kept on the dead instance, the cursor
// would pass the stale migration try below or fault it for an entry
// only the fresh list holds.
func TestCursorFollowsRevivedInstance(t *testing.T) {
	const a, b topology.NodeID = 1, 2
	long, short := protocol.DefaultConfig(), protocol.DefaultConfig()
	long.EntryTTL, short.EntryTTL = 50, 5
	w := &scriptWorld{n: 3, nodes: map[topology.NodeID]protocol.Discovery{}}
	dead := w.realtor(a, long)
	o := NewWorldOracle(w)
	dead.deliver(o, 1, pledge(b, 4), true)
	o.Record(trace.Event{At: 30, Kind: trace.MigrateTry, Node: a, Peer: b}) // aged 29 < 50
	o.Record(trace.Event{At: 34, Kind: trace.NodeKill, Node: a, Peer: -1})
	dead.r.OnNodeDeath()
	o.Record(trace.Event{At: 35, Kind: trace.MsgSend, Node: a, Peer: -1, Info: "flood-HELP"})
	o.Record(trace.Event{At: 36, Kind: trace.NodeRevive, Node: a, Peer: -1})

	fresh := w.realtor(a, short)
	fresh.deliver(o, 40, pledge(b, 4), true)
	o.Record(trace.Event{At: 46, Kind: trace.MigrateTry, Node: a, Peer: b}) // aged 6 ≥ 5

	wantViolations(t, o, []Violation{
		{At: 46, Invariant: "I3-soft-state-expiry", Node: a, Detail: "migration try to node 2 using a pledge aged 6 ≥ EntryTTL 5"},
	})
}

// deliverSetup builds the state BenchmarkOracleDeliver and
// TestOracleDeliverAllocatesNothing replay deliveries against: one
// organizer whose pledge list holds size entries and which is a member
// of size communities, all justified and audited once.
func deliverSetup(tb testing.TB, size int) (o *Oracle, self topology.NodeID, pledges, helps []protocol.Message) {
	self = 1250
	cfg := protocol.DefaultConfig()
	cfg.MaxMemberships = size
	w := &scriptWorld{n: 2500, nodes: map[topology.NodeID]protocol.Discovery{}}
	n := w.realtor(self, cfg)
	o = NewWorldOracle(w)
	for i := 1; i <= size; i++ {
		pledges = append(pledges, pledge(topology.NodeID(2*i), float64(i)))
		helps = append(helps, help(topology.NodeID(2*i+1)))
	}
	for _, m := range append(pledges, helps...) {
		n.deliver(o, 1, m, true)
	}
	if n.r.CommunitySize() != size || n.r.Memberships() != size {
		tb.Fatalf("set-up holds %d pledges, %d memberships, want %d", n.r.CommunitySize(), n.r.Memberships(), size)
	}
	return o, self, pledges, helps
}

// The audit on write costs no allocation: once a node's first audit
// has walked its tables, a PLEDGE or HELP delivery checks the logged
// writes and the last sender through point lookups, with no closure
// and no map.
func TestOracleDeliverAllocatesNothing(t *testing.T) {
	for _, size := range []int{12, 200} {
		o, self, pledges, helps := deliverSetup(t, size)
		for _, msgs := range [][]protocol.Message{pledges, helps} {
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				o.OnDeliver(1, self, msgs[i%len(msgs)])
				i++
			})
			if allocs != 0 {
				t.Errorf("size %d: a %s delivery allocates %.1f times, want 0", size, msgs[0].Kind, allocs)
			}
		}
		if len(o.Violations()) != 0 {
			t.Fatalf("state drifted: %v", o.Violations()[0])
		}
	}
}

// BenchmarkOracleDeliver is the unit cost of the I4 audits the oracle
// runs before every delivery: a PLEDGE arriving at an organizer whose
// pledge list holds 12 or 200 entries, and a HELP arriving at a member
// of as many communities — the numbers to read beside
// core.deliver_pledge_ns and core.deliver_help_ns. Audited on write,
// the cost is flat in the table size. Deliveries repeat at one instant,
// so the audited state stays justified and no violation is ever
// formatted.
func BenchmarkOracleDeliver(b *testing.B) {
	for _, size := range []int{12, 200} {
		o, self, pledges, helps := deliverSetup(b, size)
		for _, bc := range []struct {
			name string
			msgs []protocol.Message
		}{{"PLEDGE", pledges}, {"HELP", helps}} {
			b.Run(fmt.Sprintf("%s/%d", bc.name, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					o.OnDeliver(1, self, bc.msgs[i%len(bc.msgs)])
				}
				if len(o.Violations()) != 0 {
					b.Fatalf("benchmark state drifted: %v", o.Violations()[0])
				}
			})
		}
	}
}
