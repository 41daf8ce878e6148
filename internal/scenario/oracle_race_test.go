package scenario

import (
	"context"
	"testing"

	"realtor/internal/check"
	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// sharedStateProbe is a Tee consumer that counts the callbacks reaching
// the two pieces of oracle state shard workers share beyond the I5
// multiset: DHT-FOUND answers checked against a home's maxPut row that
// another shard writes, and sends checked against the shadow graph
// after a recorded cut, when the shards' first Reachable calls build
// its component labels.
type sharedStateProbe struct {
	shardOf []int32
	answers int            // FOUND answers with a non-self entry, home and asker on different shards
	cut     bool           // a LinkCut was recorded
	senders map[int32]bool // shards that sent after the first cut
}

func (p *sharedStateProbe) Record(ev trace.Event) {
	p.cut = p.cut || ev.Kind == trace.LinkCut
}

func (p *sharedStateProbe) OnSend(_ sim.Time, from, _ topology.NodeID, _ protocol.Message) {
	if p.cut {
		p.senders[p.shardOf[from]] = true
	}
}

func (p *sharedStateProbe) OnDeliver(_ sim.Time, to topology.NodeID, m protocol.Message) {
	if m.Kind != protocol.DHTFound || p.shardOf[to] == p.shardOf[m.From] {
		return
	}
	for _, c := range m.View {
		if c.ID != m.From {
			p.answers++
			return
		}
	}
}

func (p *sharedStateProbe) OnDrop(sim.Time, topology.NodeID, topology.NodeID, protocol.Message, string) {
}
func (p *sharedStateProbe) OnInject(sim.Time, topology.NodeID, float64) {}

// The oracle audits on the shard workers, locking only what they share.
// Three runs at 4 shards reach both of its cross-shard reads, as a
// first, tee'd run of each shows: dht-churn and partition-cut read the
// shadow graph from several shards after a cut, and generated scenario
// 104 (a DHT under load; dht-churn's lookups never leave their node)
// checks FOUND answers against homes on other shards. The runs after
// it attach nothing but the oracle, so under -race the only ordering
// between the workers is the oracle's own lock and atomics, and an
// unguarded shared access is reported.
func TestShardedOracleSharedState(t *testing.T) {
	const shards = 4
	pkg := func(name string) fuzzscen.Scenario {
		p, err := LoadPackage(scenRoot + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return p.Spec.Effective()
	}
	for _, c := range []struct {
		name    string
		s       fuzzscen.Scenario
		answers bool // must check FOUND answers across shards
	}{
		{"dht-churn", pkg("dht-churn"), false},
		{"partition-cut", pkg("partition-cut"), false},
		{"generated-104", fuzzscen.Generate(104), true},
	} {
		s := c.s
		probe := &sharedStateProbe{shardOf: topology.ShardAssign(s.Graph(), shards), senders: map[int32]bool{}}
		hooks := &harness.Hooks{}
		hooks.Tee(probe, probe)
		inst, err := harness.SimSharded(shards).Start(s, fuzzscen.Builder(s), hooks, nil)
		if err != nil {
			t.Fatal(err)
		}
		hooks.Bind(check.NewWorldOracle(inst.World()))
		inst.Run(context.Background())
		inst.Close()
		if !probe.cut || len(probe.senders) < 2 {
			t.Fatalf("%s: cut recorded %v, %d shard(s) sent after it; want a cut and ≥ 2", c.name, probe.cut, len(probe.senders))
		}
		if c.answers && probe.answers == 0 {
			t.Fatalf("%s: no FOUND answer crossed shards", c.name)
		}

		for rep := 0; rep < 4; rep++ {
			out, err := harness.RunChecked(harness.SimSharded(shards), s, fuzzscen.Builder(s))
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed() {
				t.Fatalf("%s: honest run flagged at %d shards: %v", c.name, shards, out.Violations[0])
			}
		}
	}
}
