// The extra-large scalability study (A2-XL): meshes from 10 000 toward
// 100 000 nodes, run once per configured shard count. Each cell is one
// deterministic engine run; the study both measures the sharded
// kernel's wall-clock behaviour and *proves* its core promise on every
// row, by demanding byte-identical statistics at every shard count
// before reporting any timing.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"realtor/internal/sim"
	"realtor/internal/topology"
)

// ScaleXLStudy parameterizes the extra-large study. Windows are short
// and the per-node load light: at side 316 the mesh is ~100k nodes and
// the point is kernel scaling, not protocol statistics.
type ScaleXLStudy struct {
	Sides         []int
	ShardCounts   []int // kernels to time per side; must include 1
	PerNodeLambda float64
	Radius        int
	Warmup        sim.Time
	Duration      sim.Time
}

// DefaultScaleXL returns the configuration behind results/scale_xl.txt:
// 10 000, 40 000, and ~100 000 nodes (sides 100, 200, 316), shard
// counts 1/2/4/8, a 2-hop flood scope, and a 100-second measurement
// window after a 20-second warmup. The per-node load matches the A2-L
// study's 0.18 tasks/s and the window is long enough to reach queue
// steady state — heavy enough that nodes cross the help threshold and
// the discovery protocol (not just arrival bookkeeping) is what the
// kernel parallelizes.
func DefaultScaleXL() ScaleXLStudy {
	return ScaleXLStudy{
		Sides:         []int{100, 200, 316},
		ShardCounts:   []int{1, 2, 4, 8},
		PerNodeLambda: 0.18,
		Radius:        2,
		Warmup:        20,
		Duration:      120,
	}
}

// XLPoint is one (mesh side, shard count) cell: the run's statistics
// rendered canonically (identical strings across the row is the
// byte-identity proof), plus its wall-clock time.
type XLPoint struct {
	Nodes   int
	Shards  int
	Stats   string
	Elapsed time.Duration

	UnitsPerNodeSec float64
	Admission       float64
}

// RunScaleXL executes the study for one protocol. Cells run
// sequentially — never fanned out — so the wall-clock column measures
// the kernel alone, not scheduler contention from sibling runs. It
// returns an error (never a silently wrong table) if any shard count
// produces statistics that differ from the single-shard run's.
func RunScaleXL(st ScaleXLStudy, p Protocol, seed int64) ([]XLPoint, error) {
	var out []XLPoint
	for _, side := range st.Sides {
		g := topology.Mesh(side, side)
		want := ""
		for i, shards := range st.ShardCounts {
			one := ScaleLargeStudy{PerNodeLambda: st.PerNodeLambda, Radius: st.Radius,
				Warmup: st.Warmup, Duration: st.Duration, Shards: shards}
			cfg, lambda := one.cell(g, seed)
			e := newCell(cfg, p.Build)
			src := PoissonSource(cfg, lambda)
			start := time.Now()
			stats := e.Run(src)
			elapsed := time.Since(start)
			rendered := fmt.Sprintf("%+v", stats)
			if i == 0 {
				want = rendered
			} else if rendered != want {
				return nil, fmt.Errorf(
					"experiment: side %d, %d shards diverged from the single-shard run:\n got %s\nwant %s",
					side, shards, rendered, want)
			}
			pt := one.point(g, stats)
			out = append(out, XLPoint{
				Nodes:           pt.Nodes,
				Shards:          shards,
				Stats:           rendered,
				Elapsed:         elapsed,
				UnitsPerNodeSec: pt.UnitsPerNodeSec,
				Admission:       pt.Admission,
			})
		}
	}
	return out, nil
}

// XLTable renders the study: one row per (size, shards) cell with the
// deterministic metrics, the measured wall time, and the speedup over
// that size's single-shard run. The stats columns are byte-identical
// down each size block — RunScaleXL has already verified it — while the
// timing columns are measurements and vary run to run.
func XLTable(points []XLPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s%-8s%-18s%-12s%-12s%-9s\n",
		"nodes", "shards", "units/node/sec", "admission", "wall", "speedup")
	base := map[int]time.Duration{}
	for _, p := range points {
		if p.Shards == 1 {
			base[p.Nodes] = p.Elapsed
		}
	}
	for _, p := range points {
		speedup := "-"
		if b1, ok := base[p.Nodes]; ok && p.Elapsed > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(b1)/float64(p.Elapsed))
		}
		fmt.Fprintf(&b, "%-9d%-8d%-18.4f%-12.4f%-12s%-9s\n",
			p.Nodes, p.Shards, p.UnitsPerNodeSec, p.Admission,
			p.Elapsed.Round(time.Millisecond), speedup)
	}
	return b.String()
}
