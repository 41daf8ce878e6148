// Protocol builders and the fast/reference differential pair
// (Differential) — pure functions of the Scenario, so any reported
// failure replays exactly. Oracle-checked execution lives in
// internal/harness (RunChecked), which runs a scenario on either the
// simulator or the live Agile cluster; this package stays backend-free
// so the harness can depend on it without an import cycle.
package fuzzscen

import (
	"fmt"

	"realtor/internal/check"
	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/federation"
	"realtor/internal/metrics"
	"realtor/internal/policy"
	"realtor/internal/protocol"
	"realtor/internal/protocol/dht"
	"realtor/internal/protocol/hier"
)

// Overlay sizing for fuzz-scale meshes (tens of nodes): communities of
// 4 under a binary tree give the hierarchy real depth even at N=9, and
// the same group size feeds EngineConfig's flood scoping.
const (
	fuzzGroupSize = 4
	fuzzBranch    = 2
)

// Builder returns the honest fast-path protocol builder for a scenario:
// flood-REALTOR by default, or the overlay the Discovery field selects.
func Builder(s Scenario) engine.Builder {
	cfg := s.ProtocolConfig()
	switch s.Discovery {
	case "dht":
		return wrapPolicies(s, dht.Build(dht.Config{Protocol: cfg, N: s.Nodes()}))
	case "hier":
		return wrapPolicies(s, hier.Build(hier.Config{
			Protocol: cfg, N: s.Nodes(),
			GroupSize: fuzzGroupSize, Branch: fuzzBranch,
		}))
	case "fed":
		gateways := federation.Gateways(hier.Groups(s.Nodes(), fuzzGroupSize))
		return wrapPolicies(s, func() protocol.Discovery {
			return federation.New(federation.Config{Protocol: cfg, GatewayFunc: gateways})
		})
	}
	return wrapPolicies(s, func() protocol.Discovery { return core.New(cfg) })
}

// ReferenceBuilder returns the slow reference twin's builder.
func ReferenceBuilder(s Scenario) engine.Builder {
	cfg := s.ProtocolConfig()
	return wrapPolicies(s, func() protocol.Discovery { return check.NewReference(cfg) })
}

// MutantBuilder returns the soft-state-expiry mutant's builder — the
// seeded bug used to prove the oracle (and this fuzzer) can catch real
// protocol defects.
func MutantBuilder(s Scenario) engine.Builder {
	cfg := s.ProtocolConfig()
	return wrapPolicies(s, func() protocol.Discovery { return check.NewStaleRealtor(cfg) })
}

// BrokenBreakerBuilder returns the honest protocol wrapped in the
// deliberately miswired breaker stack (policy.NewBrokenBreaker) — the
// seeded policy-layer mutant the I10 audit must catch (`make
// policy-smoke`). The scenario's own policy config, if any, is kept;
// its breaker is forced on with an eager trip threshold.
func BrokenBreakerBuilder(s Scenario) engine.Builder {
	cfg := s.ProtocolConfig()
	var pc policy.Config
	if s.Policies != nil {
		pc = *s.Policies
	}
	return policy.NewBrokenBreaker(pc, func() protocol.Discovery { return core.New(cfg) })
}

// wrapPolicies interposes the scenario's policy middleware, identically
// for every builder, so differential pairs stay exactly comparable with
// policies active.
func wrapPolicies(s Scenario, build engine.Builder) engine.Builder {
	if s.Policies == nil {
		return build
	}
	return policy.New(*s.Policies, build)
}

// Differential replays the scenario through core.Realtor and through
// check.Reference and compares the complete decision sequences. It
// returns ("", true) when the two implementations are bit-identical,
// or a description of the first divergence.
func Differential(s Scenario) (string, bool) {
	return DifferentialShards(s, 1)
}

// DifferentialShards is Differential on the sharded kernel: both the
// fast path and the reference replay with the given shard count. The
// kernel promises a byte-identical event order at any shard count, so
// the decision logs remain directly comparable — and running the pair
// sharded extends the differential's coverage to the parallel kernel
// itself.
func DifferentialShards(s Scenario, shards int) (string, bool) {
	// The differential pair is REALTOR-only: check.Reference has no
	// overlay twin, so an overlay scenario is compared through its
	// REALTOR projection (same topology, workload, faults, and knobs —
	// only the discovery protocol reverts). s is a value; the caller's
	// scenario keeps its Discovery field.
	s.Discovery = ""
	fast, fastStats := runLogged(s, Builder(s), shards)
	ref, refStats := runLogged(s, ReferenceBuilder(s), shards)
	if _, why := check.CompareLogs(fast, ref); why != "" {
		return why, false
	}
	if fastStats != refStats {
		return fmt.Sprintf("identical decision logs but diverging stats:\n fast %+v\n ref  %+v",
			fastStats, refStats), false
	}
	return "", true
}

func runLogged(s Scenario, build engine.Builder, shards int) (*check.DecisionLog, metrics.RunStats) {
	g := s.Graph()
	log := &check.DecisionLog{}
	cfg := s.EngineConfig(g)
	cfg.Trace = log
	cfg.Observer = log
	cfg.Shards = shards
	e := engine.New(cfg, build)
	for _, a := range s.Attacks() {
		a.Apply(e)
	}
	stats := e.Run(s.Workload(g))
	return log, stats
}
