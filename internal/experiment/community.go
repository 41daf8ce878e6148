package experiment

import (
	"fmt"
	"strings"

	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// CommunityPoint describes REALTOR's community structure at one load
// (descriptive statistics C1): how big communities get and how many a
// node belongs to — the paper describes the mechanism but never reports
// the emergent sizes.
type CommunityPoint struct {
	Lambda          float64
	MeanCommunity   float64 // mean availability-list size across nodes
	MaxCommunity    int
	MeanMemberships float64
	MaxMemberships  int
}

// RunCommunity measures community structure mid-run (at 80 % of the
// duration, while the system is in steady state).
func RunCommunity(lambdas []float64, seed int64) []CommunityPoint {
	return collect(len(lambdas), 0, func(i int) CommunityPoint {
		lambda := lambdas[i]
		ecfg := PaperCell(topology.Mesh(5, 5), 100, 1100, seed)
		e := newCell(ecfg, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
		pt := CommunityPoint{Lambda: lambda}
		e.Scheduler().At(sim.Time(float64(ecfg.Duration)*0.8), func(sim.Time) {
			var sumC, sumM float64
			for i := 0; i < ecfg.Graph.N(); i++ {
				r := e.Discovery(topology.NodeID(i)).(*core.Realtor)
				c, m := r.CommunitySize(), r.Memberships()
				sumC += float64(c)
				sumM += float64(m)
				if c > pt.MaxCommunity {
					pt.MaxCommunity = c
				}
				if m > pt.MaxMemberships {
					pt.MaxMemberships = m
				}
			}
			pt.MeanCommunity = sumC / float64(ecfg.Graph.N())
			pt.MeanMemberships = sumM / float64(ecfg.Graph.N())
		})
		e.Run(PoissonSource(ecfg, lambda))
		return pt
	})
}

// CommunityTable renders the C1 statistics.
func CommunityTable(points []CommunityPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s%-16s%-14s%-18s%-16s\n",
		"lambda", "mean-community", "max-community", "mean-memberships", "max-memberships")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.3g%-16.2f%-14d%-18.2f%-16d\n",
			p.Lambda, p.MeanCommunity, p.MaxCommunity, p.MeanMemberships, p.MaxMemberships)
	}
	return b.String()
}
