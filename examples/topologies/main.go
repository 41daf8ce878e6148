// Topologies: REALTOR beyond the paper's 5×5 mesh. The community
// protocol never looks at the physical distance ("a dynamic neighborhood
// concept that is independent of the physical distance"), so it should
// hold its effectiveness across very different overlays — this example
// measures admission, overhead and migration rate on five of them at the
// same load.
package main

import (
	"fmt"

	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

func main() {
	const lambda = 7.0
	seedStream := rng.New(5)
	graphs := []struct {
		name string
		g    *topology.Graph
	}{
		{"mesh-5x5", topology.Mesh(5, 5)},
		{"torus-5x5", topology.Torus(5, 5)},
		{"ring-25", topology.Ring(25)},
		{"star-25", topology.Star(25)},
		{"random-25", topology.Random(25, 0.1, seedStream)},
	}

	fmt.Printf("REALTOR at λ=%g across overlays (25 nodes each):\n\n", lambda)
	fmt.Printf("%-11s%-7s%-10s%-12s%-12s%-12s%s\n",
		"overlay", "links", "diameter", "admission", "units/task", "migration", "helps")
	for _, tc := range graphs {
		cfg := engine.Config{
			Graph:         tc.g,
			QueueCapacity: 100,
			HopDelay:      0.01,
			Threshold:     0.9,
			Warmup:        200,
			Duration:      1200,
			Seed:          5,
		}
		e := engine.New(cfg, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
		src := workload.NewPoisson(lambda, 5, tc.g.N(), rng.New(5))
		st := e.Run(src)
		fmt.Printf("%-11s%-7d%-10d%-12.4f%-12.2f%-12.4f%d\n",
			tc.name, tc.g.Links(), tc.g.Diameter(),
			st.AdmissionProbability(), st.CostPerAdmitted(), st.MigrationRate(), st.HelpMsgs)
	}
	fmt.Println("\nEffectiveness is overlay-independent; the absolute message units")
	fmt.Println("differ because a flood costs one unit per link (paper's cost model).")
}
