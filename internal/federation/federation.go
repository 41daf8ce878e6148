// Package federation implements the paper's stated future work
// (Section 7): "inter-neighbor-group resource discovery and allocation
// for very large distributed dynamic real-time systems".
//
// Nodes are partitioned into neighbor groups (engine.Config.Groups), and
// all community traffic — HELP floods, pledges, crossing updates — stays
// inside a group, which is what keeps per-node overhead system-size
// independent. When a node's own group cannot serve a migration (its
// availability list is empty at request time), the node *escalates*: it
// unicasts a RELAY to one gateway in each foreign group; the gateway
// re-floods the HELP inside its group on the origin's behalf, and
// members pledge directly back to the origin. Escalation is rate-limited
// by the same Upper_limit discipline as Algorithm H, so a globally
// saturated system does not melt down in relays.
package federation

import (
	"fmt"
	"sort"

	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Config wires one node into the federation.
type Config struct {
	Protocol protocol.Config
	// Gateways lists one escalation target per foreign group.
	Gateways []topology.NodeID
	// GatewayFunc, when set, resolves the gateways from the node's own ID
	// at Attach time — convenient when one Builder constructs instances
	// for every node (it overrides Gateways).
	GatewayFunc func(self topology.NodeID) []topology.NodeID
	// EscalateEvery rate-limits escalations (default: Protocol.HelpUpper
	// is a sensible ceiling; zero means that default).
	EscalateEvery sim.Time
}

// Realtor is group-scoped REALTOR plus inter-group escalation. It embeds
// the unmodified core protocol for all intra-group behaviour.
type Realtor struct {
	inner *core.Realtor
	env   protocol.Env

	gateways      []topology.NodeID
	gatewayFunc   func(topology.NodeID) []topology.NodeID
	escalateEvery sim.Time
	lastEscalate  sim.Time
	escalated     bool
	escalations   uint64
	relayed       uint64
	dead          bool
}

var _ protocol.Discovery = (*Realtor)(nil)

// New returns a federated instance.
func New(cfg Config) *Realtor {
	if err := cfg.Protocol.Validate(); err != nil {
		panic(err)
	}
	every := cfg.EscalateEvery
	if every <= 0 {
		every = cfg.Protocol.HelpUpper
	}
	return &Realtor{
		inner:         core.New(cfg.Protocol),
		gateways:      append([]topology.NodeID(nil), cfg.Gateways...),
		gatewayFunc:   cfg.GatewayFunc,
		escalateEvery: every,
	}
}

// Name identifies the protocol in tables.
func (f *Realtor) Name() string { return "FED-REALTOR" }

// Attach binds the node environment (shared with the inner protocol)
// and resolves GatewayFunc now that the node's identity is known.
func (f *Realtor) Attach(env protocol.Env) {
	f.env = env
	f.inner.Attach(env)
	if f.gatewayFunc != nil {
		f.gateways = f.gatewayFunc(env.Self())
	}
}

// OnArrival delegates Algorithm H to the inner protocol.
func (f *Realtor) OnArrival(size float64) {
	if f.dead {
		return
	}
	f.inner.OnArrival(size)
}

// OnUsageCrossing delegates Algorithm P's member pledges.
func (f *Realtor) OnUsageCrossing(rising bool) {
	if f.dead {
		return
	}
	f.inner.OnUsageCrossing(rising)
}

// Deliver handles RELAY itself and hands everything else to the inner
// protocol.
func (f *Realtor) Deliver(m protocol.Message) {
	if f.dead {
		return
	}
	if m.Kind != protocol.Relay {
		f.inner.Deliver(m)
		return
	}
	// Gateway duty: re-flood the HELP inside this group on behalf of the
	// (foreign) origin. From stays the origin, so pledges unicast back to
	// it directly; the gateway holds no state about the relay —
	// statelessness survives federation.
	f.relayed++
	f.env.Flood(protocol.Message{
		Kind:   protocol.Help,
		From:   m.From,
		Demand: m.Demand,
	})
}

// Candidates returns the inner availability list; when it comes up empty
// for this request, the node escalates to foreign groups (rate-limited)
// so that *future* requests have cross-group candidates.
func (f *Realtor) Candidates(size float64) []protocol.Candidate {
	if f.dead {
		return nil
	}
	cands := f.inner.Candidates(size)
	if len(cands) == 0 {
		f.maybeEscalate(size)
	}
	return cands
}

func (f *Realtor) maybeEscalate(size float64) {
	if len(f.gateways) == 0 {
		return
	}
	now := f.env.Now()
	if f.escalated && now-f.lastEscalate <= f.escalateEvery {
		return
	}
	f.escalated = true
	f.lastEscalate = now
	f.escalations++
	for _, gw := range f.gateways {
		f.env.Unicast(gw, protocol.Message{
			Kind:   protocol.Relay,
			From:   f.env.Self(),
			Demand: size,
		})
	}
}

// OnMigrationOutcome delegates list maintenance and Algorithm H reward.
func (f *Realtor) OnMigrationOutcome(target topology.NodeID, size float64, success bool) {
	f.inner.OnMigrationOutcome(target, size, success)
}

// OnNodeDeath drops all soft state, federation state included.
func (f *Realtor) OnNodeDeath() {
	f.dead = true
	f.escalated = false
	f.inner.OnNodeDeath()
}

// Escalations returns how many times this node escalated.
func (f *Realtor) Escalations() uint64 { return f.escalations }

// Relayed returns how many foreign HELPs this node re-flooded.
func (f *Realtor) Relayed() uint64 { return f.relayed }

// Inner exposes the wrapped core protocol for tests.
func (f *Realtor) Inner() *core.Realtor { return f.inner }

// QuadrantGroups partitions a rows×cols mesh into an gr×gc grid of
// groups, returning the per-node group IDs. rows must divide by gr and
// cols by gc.
func QuadrantGroups(rows, cols, gr, gc int) []int {
	if rows%gr != 0 || cols%gc != 0 {
		panic(fmt.Sprintf("federation: %dx%d mesh not divisible into %dx%d groups",
			rows, cols, gr, gc))
	}
	out := make([]int, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out[r*cols+c] = (r/(rows/gr))*gc + c/(cols/gc)
		}
	}
	return out
}

// Leaders returns one representative (lowest node ID) per group.
func Leaders(groups []int) map[int]topology.NodeID {
	leaders := map[int]topology.NodeID{}
	for i, g := range groups {
		if cur, ok := leaders[g]; !ok || topology.NodeID(i) < cur {
			leaders[g] = topology.NodeID(i)
		}
	}
	return leaders
}

// Gateways resolves escalation targets over one group map: the returned
// function maps a node to the leader of every group other than its own,
// in ascending node order (deterministic, for reproducible runs). The
// lists are built here, once per group, so resolving all N nodes at
// Attach costs O(N) rather than a leader scan per node; nodes of one
// group share a list, which callers must not modify.
func Gateways(groups []int) func(topology.NodeID) []topology.NodeID {
	leaders := Leaders(groups)
	order := make([]int, 0, len(leaders))
	for g := range leaders {
		order = append(order, g)
	}
	sort.Slice(order, func(i, j int) bool { return leaders[order[i]] < leaders[order[j]] })
	foreign := make(map[int][]topology.NodeID, len(order))
	for _, own := range order {
		for _, g := range order {
			if g != own {
				foreign[own] = append(foreign[own], leaders[g])
			}
		}
	}
	return func(self topology.NodeID) []topology.NodeID { return foreign[groups[self]] }
}
