package hier_test

import (
	"fmt"
	"testing"

	"realtor/internal/check"
	"realtor/internal/engine"
	"realtor/internal/protocol"
	"realtor/internal/protocol/hier"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

func testConfig(n int) hier.Config {
	return hier.Config{Protocol: protocol.DefaultConfig(), N: n, GroupSize: 8, Branch: 2}
}

// TestTreeGeometry pins the block arithmetic: sizes, organizers, depth,
// and child enumeration with end-of-range clipping.
func TestTreeGeometry(t *testing.T) {
	tr := hier.NewTree(64, 8, 2)
	if tr.Depth() != 3 {
		t.Fatalf("depth = %d, want 3 (8→16→32→64)", tr.Depth())
	}
	if tr.BlockSize(0) != 8 || tr.BlockSize(2) != 32 {
		t.Fatalf("block sizes: %d, %d", tr.BlockSize(0), tr.BlockSize(2))
	}
	if org := tr.OrganizerAt(43, 0); org != 40 {
		t.Fatalf("level-0 organizer of 43 = %d, want 40", org)
	}
	if org := tr.OrganizerAt(43, 2); org != 32 {
		t.Fatalf("level-2 organizer of 43 = %d, want 32", org)
	}
	var kids []topology.NodeID
	tr.Children(32, 1, func(c topology.NodeID) { kids = append(kids, c) })
	if len(kids) != 2 || kids[0] != 32 || kids[1] != 40 {
		t.Fatalf("children of level-1 block at 32 = %v, want [32 40]", kids)
	}

	// A ragged tail: the last block is clipped to N.
	short := hier.NewTree(60, 8, 2)
	kids = nil
	short.Children(56, 1, func(c topology.NodeID) { kids = append(kids, c) })
	if len(kids) != 1 || kids[0] != 56 {
		t.Fatalf("clipped children = %v, want [56]", kids)
	}
}

// TestGroupsMatchesTree: the engine group assignment is the level-0
// block partition.
func TestGroupsMatchesTree(t *testing.T) {
	g := hier.Groups(20, 8)
	want := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("Groups(20,8) = %v", g)
		}
	}
}

// TestLevel0RelayRefloodsForOrigin: a level-0 organizer answers an
// escalation by flooding HELP in its own community with the origin as
// sender and the origin's demand, so pledges return straight to the
// origin and the organizer keeps no state about the relay.
func TestLevel0RelayRefloodsForOrigin(t *testing.T) {
	cfg := testConfig(64)
	h := hier.Build(cfg)().(*hier.H)
	env := protocoltest.New(16, 100) // organizer of block [16,24)
	h.Attach(env)
	env.Reset()
	h.Deliver(protocol.Message{Kind: protocol.Relay, From: 40, Origin: 40, Demand: 3})
	floods := env.Floods(protocol.Help)
	if len(floods) != 1 {
		t.Fatalf("want exactly one HELP reflood, got %d", len(floods))
	}
	if floods[0].Msg.From != 40 || floods[0].Msg.Demand != 3 {
		t.Fatalf("reflood HELP %+v, want From the origin 40 and Demand 3", floods[0].Msg)
	}
	if h.Relayed() != 1 {
		t.Fatalf("Relayed = %d, want 1", h.Relayed())
	}
}

// TestFanDownSkipsOriginSubtree: a level-1 relay at organizer 32 covers
// child 32 (itself, recursing to a level-0 reflood) and skips child 40,
// the block the origin already flooded.
func TestFanDownSkipsOriginSubtree(t *testing.T) {
	cfg := testConfig(64)
	h := hier.Build(cfg)().(*hier.H)
	env := protocoltest.New(32, 100)
	h.Attach(env)
	env.Reset()
	h.Deliver(protocol.Message{Kind: protocol.Relay, From: 40, Origin: 40, Demand: 3, Level: 1})
	if got := len(env.Unicasts(protocol.Relay)); got != 0 {
		t.Fatalf("origin's own block must be skipped, got %d relay unicasts", got)
	}
	if got := len(env.Floods(protocol.Help)); got != 1 {
		t.Fatalf("want the self-child's level-0 reflood, got %d floods", got)
	}
}

// TestEscalationRateLimitAndWidening: an empty community triggers an
// escalation at most once per EscalateEvery, and each failed escalation
// targets one level higher than the last, capped at the root.
func TestEscalationRateLimitAndWidening(t *testing.T) {
	cfg := testConfig(64)
	cfg.EscalateEvery = 10
	h := hier.Build(cfg)().(*hier.H)
	env := protocoltest.New(0, 100) // organizer at every level
	h.Attach(env)
	env.Reset()

	h.Candidates(5) // empty pledge list → escalate at level 1
	if h.Escalations() != 1 {
		t.Fatalf("escalations = %d, want 1", h.Escalations())
	}
	// Level 1 at node 0: self-organized, so it fans down immediately —
	// child 8 gets a level-0 relay, child 0 refloods locally.
	if got := len(env.Unicasts(protocol.Relay)); got != 1 {
		t.Fatalf("level-1 fan-down: %d relay unicasts, want 1", got)
	}

	h.Candidates(5) // inside the rate-limit window
	if h.Escalations() != 1 {
		t.Fatal("escalation fired inside the rate-limit window")
	}
	env.Advance(10)
	h.Candidates(5) // exactly EscalateEvery later: suppressed, like Algorithm H's HELP spacing
	if h.Escalations() != 1 {
		t.Fatal("escalation fired at exactly EscalateEvery")
	}

	env.Reset()
	env.Advance(1e-9)
	h.Candidates(5) // just after: widened to level 2, block [0,32), children 0 and 16
	if h.Escalations() != 2 {
		t.Fatalf("escalations = %d, want 2 after the window", h.Escalations())
	}
	relays := env.Unicasts(protocol.Relay)
	seen := map[topology.NodeID]int{}
	for _, s := range relays {
		seen[s.To] = s.Msg.Level
	}
	if lvl, ok := seen[16]; !ok || lvl != 1 {
		t.Fatalf("level-2 escalation should hand child 16 a level-1 relay; got %v", seen)
	}

	// Success resets the ladder to level 1.
	h.OnMigrationOutcome(8, 5, true)
	env.Reset()
	env.Advance(11)
	h.Candidates(5)
	if got := len(env.Unicasts(protocol.Relay)); got != 1 {
		t.Fatalf("after reset want a level-1 escalation (1 unicast), got %d", got)
	}
}

// TestEscalationGates: the rate limit defaults to Algorithm H's
// ceiling, a non-empty pledge list never escalates, everything but RELAY
// reaches the community REALTOR, and a dead node neither escalates nor
// serves a relay.
func TestEscalationGates(t *testing.T) {
	help := protocol.DefaultConfig().HelpUpper
	for _, tc := range []struct {
		name  string
		drive func(h *hier.H, env *protocoltest.FakeEnv)
		want  uint64 // escalations
	}{
		{"zero EscalateEvery means HelpUpper", func(h *hier.H, env *protocoltest.FakeEnv) {
			h.Candidates(5)
			env.Advance(help)
			h.Candidates(5)
			if h.Escalations() != 1 {
				t.Fatal("escalated at exactly HelpUpper")
			}
			env.Advance(1e-9)
			h.Candidates(5)
		}, 2},
		{"candidates exist", func(h *hier.H, env *protocoltest.FakeEnv) {
			h.Deliver(protocol.Message{Kind: protocol.Pledge, From: 3, Headroom: 60})
			if got := h.Candidates(10); len(got) != 1 {
				t.Fatalf("candidates %v, want the one pledge", got)
			}
		}, 0},
		{"community REALTOR answers HELP and crossings", func(h *hier.H, env *protocoltest.FakeEnv) {
			env.Backlog = 20
			h.Deliver(protocol.Message{Kind: protocol.Help, From: 7})
			env.Backlog = 95
			h.OnUsageCrossing(true)
			if got := len(env.Unicasts(protocol.Pledge)); got != 2 {
				t.Fatalf("pledges %d, want a HELP reply and a crossing pledge", got)
			}
		}, 0},
		{"dead node", func(h *hier.H, env *protocoltest.FakeEnv) {
			h.OnNodeDeath()
			h.OnArrival(95)
			h.Candidates(5)
			h.Deliver(protocol.Message{Kind: protocol.Relay, From: 40, Origin: 40, Demand: 3})
			h.Deliver(protocol.Message{Kind: protocol.Relay, From: 40, Origin: 40, Demand: 3, Level: 1})
			if len(env.Outbox) != 0 || h.Relayed() != 0 {
				t.Fatalf("dead node sent %v", env.Outbox)
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := hier.Build(testConfig(64))().(*hier.H)
			env := protocoltest.New(0, 100)
			h.Attach(env)
			tc.drive(h, env)
			if got := h.Escalations(); got != tc.want {
				t.Fatalf("escalations = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestDepthOneIsFederation pins the contract one-level federation rests
// on: at Branch ≥ ⌈N/GroupSize⌉ the tree has depth 1, and one escalation
// from a non-organizer reaches every foreign level-0 organizer exactly
// once — through the root — and never the origin's own block.
func TestDepthOneIsFederation(t *testing.T) {
	const n, gs = 50, 8 // seven blocks, the last one ragged
	for _, branch := range []int{7, 64} {
		if d := hier.NewTree(n, gs, branch).Depth(); d != 1 {
			t.Fatalf("branch %d: depth %d, want 1", branch, d)
		}
		build := hier.Build(hier.Config{Protocol: protocol.DefaultConfig(), N: n, GroupSize: gs, Branch: branch})
		for _, origin := range []topology.NodeID{3, 13, 49} {
			envs := map[topology.NodeID]*protocoltest.FakeEnv{}
			nodes := map[topology.NodeID]*hier.H{}
			node := func(id topology.NodeID) (*hier.H, *protocoltest.FakeEnv) {
				if nodes[id] == nil {
					nodes[id], envs[id] = build().(*hier.H), protocoltest.New(id, 100)
					nodes[id].Attach(envs[id])
				}
				return nodes[id], envs[id]
			}
			h, env := node(origin)
			h.Candidates(5) // empty pledge list: escalate
			queue := env.Unicasts(protocol.Relay)
			if len(queue) != 1 || queue[0].To != 0 {
				t.Fatalf("origin %d sent %v, want one RELAY to the root 0", origin, queue)
			}
			for len(queue) > 0 {
				s := queue[0]
				queue = queue[1:]
				dst, denv := node(s.To)
				before := len(denv.Outbox)
				dst.Deliver(s.Msg)
				for _, out := range denv.Outbox[before:] {
					if !out.Flooded && out.Msg.Kind == protocol.Relay {
						queue = append(queue, out)
					}
				}
			}
			reached := map[topology.NodeID]int{}
			for id, e := range envs {
				for _, f := range e.Floods(protocol.Help) {
					if f.Msg.From != origin {
						t.Fatalf("node %d reflooded for %d, want the origin %d", id, f.Msg.From, origin)
					}
					reached[id]++
				}
			}
			want := map[topology.NodeID]int{}
			for org := topology.NodeID(0); org < n; org += gs {
				if org != origin/gs*gs {
					want[org] = 1
				}
			}
			if fmt.Sprint(reached) != fmt.Sprint(want) {
				t.Fatalf("branch %d, origin %d: refloods %v, want %v", branch, origin, reached, want)
			}
		}
	}
}

// TestValidate covers the parameter checks, including branch 1, whose
// blocks never grow (NewTree would not return).
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*hier.Config)
		ok   bool
	}{
		{"valid", func(*hier.Config) {}, true},
		{"branch 0 means 8", func(c *hier.Config) { c.Branch = 0 }, true},
		{"no nodes", func(c *hier.Config) { c.N = 0 }, false},
		{"negative group size", func(c *hier.Config) { c.GroupSize = -1 }, false},
		{"branch 1", func(c *hier.Config) { c.Branch = 1 }, false},
	} {
		cfg := hier.Config{Protocol: protocol.DefaultConfig(), N: 16, GroupSize: 4, Branch: 2}
		tc.edit(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestDepthZeroNeverEscalates: one community covering every node has
// nothing above it to ask.
func TestDepthZeroNeverEscalates(t *testing.T) {
	cfg := testConfig(8) // GroupSize 8 covers all 8 nodes
	h := hier.Build(cfg)().(*hier.H)
	env := protocoltest.New(0, 100)
	h.Attach(env)
	h.Candidates(5)
	if h.Escalations() != 0 {
		t.Fatalf("escalations = %d, want 0 at depth 0", h.Escalations())
	}
}

// TestEngineRunOracleClean runs hierarchical REALTOR on the engine with
// group-scoped floods, node kills, and link churn under the full oracle.
func TestEngineRunOracleClean(t *testing.T) {
	g := topology.Mesh(6, 6)
	cfg := hier.Config{Protocol: protocol.DefaultConfig(), N: g.N(), GroupSize: 6, Branch: 2}
	ecfg := engine.Config{
		Graph:         g,
		QueueCapacity: 20,
		HopDelay:      0.01,
		Threshold:     cfg.Protocol.Threshold,
		Duration:      60,
		Seed:          4,
		Groups:        hier.Groups(g.N(), 6),
	}
	h := &check.Hooks{}
	ecfg.Trace, ecfg.Observer = h, h
	e := engine.New(ecfg, engine.Builder(hier.Build(cfg)))
	o := check.NewOracle(e)
	h.Bind(o)
	sched := e.Scheduler()
	sched.At(20, func(sim.Time) { e.Kill(13) })
	sched.At(25, func(sim.Time) { e.CutLink(6, 7) })
	sched.At(35, func(sim.Time) { e.Revive(13) })
	sched.At(40, func(sim.Time) { e.RestoreLink(6, 7) })

	src := workload.NewPoisson(18, 2, g.N(), rng.New(4))
	src.Select = workload.HotSpot(2, 0.7, g.N(), rng.New(4).Derive("hot"))
	stats := e.Run(src)
	o.Finish(e.Scheduler().Now())

	if stats.Offered == 0 || stats.Migrated == 0 {
		t.Fatalf("run too quiet: %+v", stats)
	}
	esc := uint64(0)
	for i := 0; i < g.N(); i++ {
		esc += e.Discovery(topology.NodeID(i)).(*hier.H).Escalations()
	}
	if esc == 0 {
		t.Fatal("hot-spot run never escalated; the hierarchy went unexercised")
	}
	for _, v := range o.Violations() {
		t.Errorf("unexpected violation: %s", v)
	}
}

// TestEngineShardInvariance: the hierarchical sweep is byte-identical at
// any shard count.
func TestEngineShardInvariance(t *testing.T) {
	run := func(shards int) string {
		g := topology.Mesh(6, 6)
		cfg := hier.Config{Protocol: protocol.DefaultConfig(), N: g.N(), GroupSize: 6, Branch: 2}
		ecfg := engine.Config{
			Graph:         g,
			QueueCapacity: 20,
			HopDelay:      0.01,
			Threshold:     cfg.Protocol.Threshold,
			Duration:      40,
			Seed:          11,
			Shards:        shards,
			Groups:        hier.Groups(g.N(), 6),
		}
		e := engine.New(ecfg, engine.Builder(hier.Build(cfg)))
		src := workload.NewPoisson(18, 2, g.N(), rng.New(11))
		src.Select = workload.HotSpot(20, 0.7, g.N(), rng.New(11).Derive("hot"))
		return fmt.Sprintf("%+v", e.Run(src))
	}
	want := run(1)
	for _, s := range []int{2, 4, 8} {
		if got := run(s); got != want {
			t.Fatalf("shards=%d diverged:\n%s\nvs shards=1:\n%s", s, got, want)
		}
	}
}
