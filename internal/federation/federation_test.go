package federation

import (
	"reflect"
	"testing"

	"realtor/internal/engine"
	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/rng"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

func fedConfig(gateways ...topology.NodeID) Config {
	return Config{Protocol: protocol.DefaultConfig(), Gateways: gateways}
}

func TestQuadrantGroups(t *testing.T) {
	g := QuadrantGroups(4, 4, 2, 2)
	// Node (r,c) -> group (r/2)*2 + c/2.
	want := []int{
		0, 0, 1, 1,
		0, 0, 1, 1,
		2, 2, 3, 3,
		2, 2, 3, 3,
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("groups %v, want %v", g, want)
		}
	}
}

func TestQuadrantGroupsIndivisiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	QuadrantGroups(5, 5, 2, 2)
}

func TestLeadersAndGateways(t *testing.T) {
	groups := QuadrantGroups(4, 4, 2, 2)
	leaders := Leaders(groups)
	if leaders[0] != 0 || leaders[1] != 2 || leaders[2] != 8 || leaders[3] != 10 {
		t.Fatalf("leaders %v", leaders)
	}
	gws := Gateways(groups)(0) // node 0 is in group 0
	want := []topology.NodeID{2, 8, 10}
	if len(gws) != 3 {
		t.Fatalf("gateways %v", gws)
	}
	for i := range want {
		if gws[i] != want[i] {
			t.Fatalf("gateways %v, want %v", gws, want)
		}
	}
}

// gatewaysForReference is the per-node resolver Gateways replaced: it
// rebuilt the leader map over all N nodes on every call, O(N²) across
// an Attach of every node.
func gatewaysForReference(node topology.NodeID, groups []int) []topology.NodeID {
	leaders := Leaders(groups)
	own := groups[node]
	var out []topology.NodeID
	for g, leader := range leaders {
		if g != own {
			out = append(out, leader)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestGatewaysMatchesPerNodeReference: hoisting the leader scan out of
// the per-node call changes no node's gateway list — every table,
// golden and digest downstream depends on that.
func TestGatewaysMatchesPerNodeReference(t *testing.T) {
	for _, groups := range [][]int{
		QuadrantGroups(6, 6, 3, 3),
		make([]int, 9), // one group: no foreign leader, nil like the reference
	} {
		resolve := Gateways(groups)
		for i := range groups {
			id := topology.NodeID(i)
			if got, want := resolve(id), gatewaysForReference(id, groups); !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d of %v: gateways %v, reference %v", i, groups, got, want)
			}
		}
	}
}

func TestGatewayFuncOverridesGatewaysAtAttach(t *testing.T) {
	cfg := fedConfig(5, 9) // static list, should lose
	var sawSelf topology.NodeID = -1
	cfg.GatewayFunc = func(self topology.NodeID) []topology.NodeID {
		sawSelf = self
		return []topology.NodeID{self + 10, self + 20}
	}
	env := protocoltest.New(3, 100)
	f := New(cfg)
	f.Attach(env)
	if sawSelf != 3 {
		t.Fatalf("GatewayFunc saw self=%d, want 3 (resolved at Attach)", sawSelf)
	}
	// The escalation targets prove which list won.
	f.Candidates(10)
	relays := env.Unicasts(protocol.Relay)
	if len(relays) != 2 || relays[0].To != 13 || relays[1].To != 23 {
		t.Fatalf("escalation went to %v, want the GatewayFunc targets [13 23]", relays)
	}
}

func TestEscalateEveryZeroDefaultsToHelpUpper(t *testing.T) {
	cfg := fedConfig(5)
	cfg.EscalateEvery = 0
	f := New(cfg)
	if f.escalateEvery != cfg.Protocol.HelpUpper {
		t.Fatalf("escalateEvery = %v, want HelpUpper %v", f.escalateEvery, cfg.Protocol.HelpUpper)
	}
	// And the default actually gates: a second starved lookup inside
	// HelpUpper seconds must not escalate again.
	env := protocoltest.New(0, 100)
	f.Attach(env)
	f.Candidates(10)
	env.Advance(cfg.Protocol.HelpUpper / 2)
	f.Candidates(10)
	if got := len(env.Unicasts(protocol.Relay)); got != 1 {
		t.Fatalf("relays %d, want 1 (HelpUpper default rate limit)", got)
	}
}

func TestEscalationOnEmptyCandidates(t *testing.T) {
	env := protocoltest.New(0, 100)
	f := New(fedConfig(5, 9))
	f.Attach(env)
	if got := f.Candidates(10); len(got) != 0 {
		t.Fatalf("unexpected candidates %v", got)
	}
	relays := env.Unicasts(protocol.Relay)
	if len(relays) != 2 {
		t.Fatalf("relays %d, want 2 (one per gateway)", len(relays))
	}
	for _, r := range relays {
		if r.Msg.From != 0 || r.Msg.Demand != 10 {
			t.Fatalf("relay fields %+v", r.Msg)
		}
	}
	if f.Escalations() != 1 {
		t.Fatalf("escalations %d", f.Escalations())
	}
}

func TestEscalationRateLimited(t *testing.T) {
	env := protocoltest.New(0, 100)
	cfg := fedConfig(5)
	cfg.EscalateEvery = 50
	f := New(cfg)
	f.Attach(env)
	f.Candidates(10)
	f.Candidates(10) // immediately again: suppressed
	if got := len(env.Unicasts(protocol.Relay)); got != 1 {
		t.Fatalf("relays %d, want 1 (rate-limited)", got)
	}
	env.Advance(51)
	f.Candidates(10)
	if got := len(env.Unicasts(protocol.Relay)); got != 2 {
		t.Fatalf("relays after window %d, want 2", got)
	}
}

func TestNoEscalationWhenCandidatesExist(t *testing.T) {
	env := protocoltest.New(0, 100)
	f := New(fedConfig(5))
	f.Attach(env)
	f.Deliver(protocol.Message{Kind: protocol.Pledge, From: 3, Headroom: 60})
	if got := f.Candidates(10); len(got) != 1 {
		t.Fatalf("candidates %v", got)
	}
	if len(env.Unicasts(protocol.Relay)) != 0 {
		t.Fatal("escalated despite having candidates")
	}
}

func TestGatewayRefloodsRelay(t *testing.T) {
	env := protocoltest.New(4, 100)
	f := New(fedConfig())
	f.Attach(env)
	f.Deliver(protocol.Message{Kind: protocol.Relay, From: 77, Demand: 12})
	floods := env.Floods(protocol.Help)
	if len(floods) != 1 {
		t.Fatalf("refloods %d, want 1", len(floods))
	}
	if floods[0].Msg.From != 77 || floods[0].Msg.Demand != 12 {
		t.Fatalf("reflooded HELP %+v (From must stay the origin)", floods[0].Msg)
	}
	if f.Relayed() != 1 {
		t.Fatalf("relayed %d", f.Relayed())
	}
}

func TestInnerBehaviourPreserved(t *testing.T) {
	env := protocoltest.New(0, 100)
	f := New(fedConfig(5))
	f.Attach(env)
	// HELP reply path goes to the inner protocol untouched.
	env.Backlog = 20
	f.Deliver(protocol.Message{Kind: protocol.Help, From: 7})
	if got := len(env.Unicasts(protocol.Pledge)); got != 1 {
		t.Fatalf("pledge replies %d", got)
	}
	// Crossing pledges too.
	env.Reset()
	env.Backlog = 95
	f.OnUsageCrossing(true)
	if got := len(env.Unicasts(protocol.Pledge)); got != 1 {
		t.Fatalf("crossing pledges %d", got)
	}
}

func TestDeathSilences(t *testing.T) {
	env := protocoltest.New(0, 100)
	f := New(fedConfig(5))
	f.Attach(env)
	f.OnNodeDeath()
	f.Candidates(10)
	f.Deliver(protocol.Message{Kind: protocol.Relay, From: 1, Demand: 1})
	f.OnArrival(95)
	if len(env.Outbox) != 0 {
		t.Fatal("dead federated node still talks")
	}
}

// Integration: a hot group saturates; federation rescues admission by
// finding capacity in the cold groups, while plain group-scoped REALTOR
// cannot see past its own group.
func TestFederationRescuesHotGroup(t *testing.T) {
	run := func(federated bool) float64 {
		graph := topology.Mesh(6, 6)
		groups := QuadrantGroups(6, 6, 2, 2)
		ecfg := engine.Config{
			Graph:         graph,
			QueueCapacity: 100,
			HopDelay:      0.01,
			Threshold:     0.9,
			Warmup:        100,
			Duration:      900,
			Seed:          3,
			Groups:        groups,
		}
		gateways := Gateways(groups)
		build := func() protocol.Discovery {
			if federated {
				return New(Config{Protocol: protocol.DefaultConfig(), GatewayFunc: gateways})
			}
			return New(Config{Protocol: protocol.DefaultConfig()}) // no gateways
		}
		e := engine.New(ecfg, build)
		// All load lands in group 0 (nodes with group id 0): 9 nodes get
		// λ·mean = 10·5 = 50 s/s of work vs 9 s/s of local capacity.
		src := workload.NewPoisson(10, 5, graph.N(), rng.New(3))
		hot := []topology.NodeID{}
		for i, g := range groups {
			if g == 0 {
				hot = append(hot, topology.NodeID(i))
			}
		}
		pick := rng.New(3).Derive("hot")
		src.Select = func(uint64) topology.NodeID { return hot[pick.Intn(len(hot))] }
		return e.Run(src).AdmissionProbability()
	}
	plain := run(false)
	fed := run(true)
	if fed <= plain+0.1 {
		t.Fatalf("federation did not rescue the hot group: plain=%.4f fed=%.4f", plain, fed)
	}
	// The hot group alone can serve at most ~9/50 ≈ 0.18 of the load
	// (plus queueing transients); federation should serve far more.
	if fed < 0.5 {
		t.Fatalf("federated admission %.4f still low", fed)
	}
}
