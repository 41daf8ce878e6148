package experiment

import (
	"fmt"
	"strings"

	"realtor/internal/attack"
	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

// PartitionStudy configures the partition-survivability experiment (P1):
// a Rows×Cols mesh is bisected at boundary column Col at time At and
// healed at Heal. While split, each side must keep admitting with only
// its own capacity; after the heal, the study measures how long the two
// sides take to rediscover each other.
type PartitionStudy struct {
	Rows, Cols int
	Col        int      // boundary column, as in attack.Partition
	At         sim.Time // split instant
	Heal       sim.Time // heal instant
	Warmup     sim.Time
	Duration   sim.Time
	// SampleEvery is the reconvergence sampling period after the heal.
	SampleEvery sim.Time
}

// DefaultPartitionStudy returns the headline scenario: the paper's 5×5
// mesh split 10/15 at column 2 for 300 seconds in the middle of the run.
func DefaultPartitionStudy() PartitionStudy {
	return PartitionStudy{
		Rows: 5, Cols: 5, Col: 2,
		At: 400, Heal: 700,
		Warmup: 100, Duration: 1100,
		SampleEvery: 1,
	}
}

// PartitionPoint is one load level of the study. The four admission
// ratios bucket every measured task by its ARRIVAL time (a task arriving
// just before the heal but resolved after it counts toward the split):
// Before covers [Warmup, At), LeftSplit/RightSplit cover [At, Heal) per
// side of the boundary, After covers [Heal, Duration).
type PartitionPoint struct {
	Lambda     float64
	Before     float64
	LeftSplit  float64
	RightSplit float64
	After      float64
	// PartitionDrops counts protocol deliveries dropped mid-flight
	// because source and destination were in different components.
	PartitionDrops uint64
	// Reconverge is the time after the heal (in seconds, quantized to
	// SampleEvery) at which BOTH sides hold at least one availability-list
	// entry for the far side recorded after the heal — the moment the
	// discovery communities span the old boundary again. -1 means the
	// sides never rediscovered each other before the run ended.
	Reconverge float64
}

// ratio accumulates an admitted/offered admission ratio.
type ratio struct{ admitted, offered uint64 }

func (r *ratio) observe(ok bool) {
	r.offered++
	if ok {
		r.admitted++
	}
}

func (r ratio) value() float64 {
	if r.offered == 0 {
		return 0
	}
	return float64(r.admitted) / float64(r.offered)
}

// RunPartition runs the partition survivability study for REALTOR across
// load levels. Each λ cell owns a fresh mesh and engine and runs on the
// experiment worker pool; results are collected by index, so output is
// bit-identical at any parallelism.
func RunPartition(st PartitionStudy, lambdas []float64, seed int64) []PartitionPoint {
	if !(st.Warmup < st.At && st.At < st.Heal && st.Heal < st.Duration) {
		panic("experiment: partition study needs Warmup < At < Heal < Duration")
	}
	if st.SampleEvery <= 0 {
		panic("experiment: partition SampleEvery must be positive")
	}
	return collect(len(lambdas), 0, func(i int) PartitionPoint {
		lambda := lambdas[i]
		split := attack.Partition{
			Rows: st.Rows, Cols: st.Cols, Col: st.Col,
			At: st.At, Heal: st.Heal,
		}
		var phases [4]ratio // before, left-split, right-split, after
		ecfg := PaperCell(topology.Mesh(st.Rows, st.Cols), st.Warmup, st.Duration, seed)
		ecfg.OnOutcome = func(t workload.Task, ok bool) {
			switch {
			case t.Arrive < st.Warmup:
				// outside the measured window
			case t.Arrive < st.At:
				phases[0].observe(ok)
			case t.Arrive < st.Heal:
				if split.Left(t.Node) {
					phases[1].observe(ok)
				} else {
					phases[2].observe(ok)
				}
			default:
				phases[3].observe(ok)
			}
		}
		e := newCell(ecfg, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
		split.Apply(e)

		pt := PartitionPoint{Lambda: lambda, Reconverge: -1}
		// Reconvergence sampler: from the heal onward, poll both sides'
		// availability lists every SampleEvery seconds. Candidates is
		// side-effect-free, so sampling cannot perturb the run.
		e.Scheduler().At(st.Heal, func(sim.Time) {
			var tk *sim.Ticker
			tk = e.Scheduler().NewTicker(st.SampleEvery, func(now sim.Time) {
				if reconverged(e, split, st.Heal) {
					pt.Reconverge = float64(now - st.Heal)
					tk.Stop()
				}
			})
		})

		run := e.Run(PoissonSource(ecfg, lambda))
		pt.Before = phases[0].value()
		pt.LeftSplit = phases[1].value()
		pt.RightSplit = phases[2].value()
		pt.After = phases[3].value()
		pt.PartitionDrops = run.PartitionDrops
		return pt
	})
}

// reconverged reports whether each side of the healed split holds at
// least one availability-list entry for the far side that was recorded
// AFTER the heal. Filtering on the entry timestamp makes the metric
// honest even when the split is shorter than the pledge TTL: stale
// pre-split entries for the far side don't count as reconvergence.
func reconverged(e *engine.Engine, split attack.Partition, heal sim.Time) bool {
	var leftSees, rightSees bool
	n := split.Rows * split.Cols
	for id := 0; id < n && !(leftSees && rightSees); id++ {
		from := topology.NodeID(id)
		for _, c := range e.Discovery(from).Candidates(0) {
			if c.At < heal || split.Left(from) == split.Left(c.ID) {
				continue
			}
			if split.Left(from) {
				leftSees = true
			} else {
				rightSees = true
			}
			break
		}
	}
	return leftSees && rightSees
}

// PartitionTable renders the P1 study: one row per load level.
func PartitionTable(points []PartitionPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s%-10s%-12s%-12s%-10s%-8s%-12s\n",
		"lambda", "before", "left-split", "right-split", "after", "drops", "reconverge")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.3g%-10.4f%-12.4f%-12.4f%-10.4f%-8d%-12.1f\n",
			p.Lambda, p.Before, p.LeftSplit, p.RightSplit, p.After, p.PartitionDrops, p.Reconverge)
	}
	return b.String()
}
