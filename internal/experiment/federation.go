package experiment

import (
	"fmt"
	"strings"

	"realtor/internal/federation"
	"realtor/internal/metrics"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/topology"
)

// FederationPoint compares group-scoped REALTOR with and without
// inter-group escalation under a hot-spot load concentrated in one group
// (the F1 extension of DESIGN.md — the paper's Section 7 future work).
type FederationPoint struct {
	MeshSide   int // n×n mesh, 2×2 groups
	Lambda     float64
	Plain      metrics.RunStats // group-scoped, no escalation
	Federated  metrics.RunStats
	PlainAdm   float64
	FedAdm     float64
	PlainUnits float64
	FedUnits   float64
}

// RunFederation drives all load into group 0 of an n×n mesh split into
// 2×2 neighbor groups and measures how much admission the inter-group
// escalation recovers.
func RunFederation(meshSide int, lambdas []float64, seed int64) []FederationPoint {
	if meshSide%2 != 0 {
		panic("experiment: federation mesh side must be even (2x2 groups)")
	}
	// Fan out the (λ, federated?) cells; both variants of a λ are
	// independent runs, so they parallelise too.
	raw := collect(2*len(lambdas), 0, func(i int) metrics.RunStats {
		return runFederationOnce(meshSide, lambdas[i/2], seed, i%2 == 1)
	})
	out := make([]FederationPoint, 0, len(lambdas))
	for li, lambda := range lambdas {
		pt := FederationPoint{MeshSide: meshSide, Lambda: lambda}
		pt.Plain = raw[2*li]
		pt.Federated = raw[2*li+1]
		pt.PlainAdm = pt.Plain.AdmissionProbability()
		pt.FedAdm = pt.Federated.AdmissionProbability()
		pt.PlainUnits = pt.Plain.MessageUnits
		pt.FedUnits = pt.Federated.MessageUnits
		out = append(out, pt)
	}
	return out
}

func runFederationOnce(meshSide int, lambda float64, seed int64, federated bool) metrics.RunStats {
	graph := topology.Mesh(meshSide, meshSide)
	groups := federation.QuadrantGroups(meshSide, meshSide, 2, 2)
	ecfg := PaperCell(graph, 100, 1100, seed)
	ecfg.Groups = groups
	gateways := federation.Gateways(groups)
	build := func() protocol.Discovery {
		cfg := federation.Config{Protocol: protocol.DefaultConfig()}
		if federated {
			cfg.GatewayFunc = gateways
		}
		return federation.New(cfg)
	}
	e := newCell(ecfg, build)
	src := PoissonSource(ecfg, lambda)
	var hot []topology.NodeID
	for i, g := range groups {
		if g == 0 {
			hot = append(hot, topology.NodeID(i))
		}
	}
	pick := rng.New(seed).Derive("hot")
	src.Select = func(uint64) topology.NodeID { return hot[pick.Intn(len(hot))] }
	return e.Run(src)
}

// FederationTable renders the comparison.
func FederationTable(points []FederationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s%-14s%-14s%-14s%-14s\n",
		"lambda", "plain-adm", "fed-adm", "plain-units", "fed-units")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.3g%-14.4f%-14.4f%-14.0f%-14.0f\n",
			p.Lambda, p.PlainAdm, p.FedAdm, p.PlainUnits, p.FedUnits)
	}
	return b.String()
}
