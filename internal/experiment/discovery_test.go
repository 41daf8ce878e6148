package experiment

import (
	"fmt"
	"strings"
	"testing"

	"realtor/internal/sim"
	"realtor/internal/topology"
)

// smallDiscovery shrinks the study to CI scale: two mesh sizes, short
// windows.
func smallDiscovery() DiscoveryStudy {
	return DiscoveryStudy{
		Sides:       []int{10, 16},
		Warmups:     []sim.Time{10, 10},
		Durations:   []sim.Time{60, 50},
		HotNodes:    []int{4, 4},
		MeanSize:    2,
		HotTaskRate: 2,
		Background:  2,
		Seed:        8,
	}
}

// TestRunDiscoverySmall: the sweep completes, exercises every contender
// under every attack, and already shows the flood-vs-overlay cost gap at
// a few hundred nodes.
func TestRunDiscoverySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol sweep")
	}
	points := RunDiscovery(smallDiscovery(), 1)
	if len(points) != 2*4*4 {
		t.Fatalf("points = %d, want 32", len(points))
	}
	cost := map[string]float64{}
	adm := map[string]float64{}
	for _, p := range points {
		if p.Stats.Offered == 0 {
			t.Fatalf("%d/%s/%s offered nothing", p.Nodes, p.Protocol, p.Attack)
		}
		if p.Nodes == 256 {
			cost[p.Protocol+"/"+p.Attack] = p.CostPerTask
			adm[p.Protocol+"/"+p.Attack] = p.Admission
		}
	}
	for _, atk := range []string{"none", "kill", "exhaust", "churn"} {
		if cost["DHT/"+atk] >= cost["REALTOR/"+atk] {
			t.Errorf("%s: DHT cost %.1f not below REALTOR %.1f", atk, cost["DHT/"+atk], cost["REALTOR/"+atk])
		}
		if cost["HIER/"+atk] >= cost["REALTOR/"+atk] {
			t.Errorf("%s: HIER cost %.1f not below REALTOR %.1f", atk, cost["HIER/"+atk], cost["REALTOR/"+atk])
		}
		if adm["DHT/"+atk] < adm["REALTOR/"+atk]-0.1 {
			t.Errorf("%s: DHT admission %.3f collapsed vs REALTOR %.3f", atk, adm["DHT/"+atk], adm["REALTOR/"+atk])
		}
	}
	table := DiscoveryTable(points)
	for _, want := range []string{"== 100 nodes ==", "== 256 nodes ==", "REALTOR", "DHT", "HIER", "FED", "churn"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// BenchmarkDiscoveryCost is the D1 head-to-head in benchmark form: one
// fault-free discovery cell per contender at 2.5k and 10k nodes, with
// the per-task message bill and the admission probability reported next
// to ns/op. No bench/ workload runs the DHT, HIER or FED overlays, so
// this is where their cells are timed. The windows are shorter than the
// full sweep's (results/discovery.txt) but preserve its shape:
// flood-REALTOR's msg-units/task grows with N while DHT and HIER stay
// roughly flat.
func BenchmarkDiscoveryCost(b *testing.B) {
	st := DefaultDiscovery()
	// Hot-node backlog grows 3 s/s against the 90 s help threshold, so
	// the run must reach past t=30 or flood-REALTOR never sends a
	// message and the cell degenerates to zero cost.
	for _, size := range []struct {
		side             int
		warmup, duration sim.Time
	}{{50, 5, 45}, {100, 5, 40}} {
		g := topology.Mesh(size.side, size.side)
		for _, c := range discoveryContenders(size.side) {
			b.Run(fmt.Sprintf("n=%d/%s", g.N(), c.Label), func(b *testing.B) {
				b.ReportAllocs()
				var pt DiscoveryPoint
				for i := 0; i < b.N; i++ {
					stats, lat := runDiscoveryCell(st, g, size.warmup, size.duration, 8, c, nil, 1)
					pt = discoveryPoint(g.N(), c.Label, "none", stats, lat)
				}
				b.ReportMetric(pt.CostPerTask, "msg-units/task")
				b.ReportMetric(pt.Admission, "admission")
			})
		}
	}
}
