package fuzzscen

import (
	"strings"
	"testing"

	"realtor/internal/workload"
)

func TestScenarioLoadValidated(t *testing.T) {
	s := Generate(4)
	s.Load = &workload.Spec{Kind: "zipf"}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "workload.kind") {
		t.Fatalf("err = %v, want workload.kind field error", err)
	}
	// With Load set, the legacy lambda/mean_size pair is ignored — a
	// zeroed pair must not fail validation.
	s.Load = &workload.Spec{Kind: "poisson", Lambda: 5, MeanSize: 2}
	s.Lambda, s.MeanSize = 0, 0
	if err := s.Validate(); err != nil {
		t.Fatalf("load-only scenario rejected: %v", err)
	}
}

func TestScenarioCapacitiesCycle(t *testing.T) {
	s := Generate(6)
	s.Topology, s.Rows, s.Cols, s.N = "mesh", 3, 3, 0
	s.Events = nil // generated against the old topology
	s.Capacities = []float64{50, 10}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := s.EngineConfig(s.Graph())
	if len(cfg.Capacities) != 9 {
		t.Fatalf("capacities not expanded to node count: %d", len(cfg.Capacities))
	}
	for i, c := range cfg.Capacities {
		want := []float64{50, 10}[i%2]
		if c != want {
			t.Fatalf("node %d capacity %v, want %v (striped)", i, c, want)
		}
	}
}

func TestScenarioCapacitiesValidated(t *testing.T) {
	s := Generate(6)
	s.Capacities = []float64{50, -1}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("err = %v, want capacity error", err)
	}
}

// Heterogeneous capacities actually bite: striping tiny queues across
// the mesh admits less than uniform capacity at the same offered load.
func TestScenarioCapacitiesAffectRun(t *testing.T) {
	s := Generate(9)
	s.Discovery = ""
	s.Events = nil
	s.Topology, s.Rows, s.Cols, s.N = "mesh", 4, 4, 0
	s.QueueCapacity = 20
	g := s.Graph()
	uniform := plainRun(s, g, nil, s.Workload(g))

	s.Capacities = []float64{20, 0.5} // half the nodes nearly capacity-less
	g2 := s.Graph()
	striped := plainRun(s, g2, nil, s.Workload(g2))
	if striped.Admitted >= uniform.Admitted {
		t.Fatalf("striped capacities admitted %d ≥ uniform %d — heterogeneity had no effect",
			striped.Admitted, uniform.Admitted)
	}
}

// Federation runs deterministically and does useful work through the
// fuzz harness's builder.
func TestFedScenarioReplayDeterministic(t *testing.T) {
	s := Generate(11)
	s.Discovery = "fed"
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	a := plainRun(s, g, s.Attacks(), s.Workload(g))
	g2 := s.Graph()
	b := plainRun(s, g2, s.Attacks(), s.Workload(g2))
	if a != b {
		t.Fatalf("fed replay diverged:\n %+v\n %+v", a, b)
	}
	if a.Offered > 0 && a.Admitted == 0 {
		t.Fatalf("fed admitted nothing of %d offered", a.Offered)
	}
}
