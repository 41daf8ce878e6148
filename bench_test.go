// Benchmark harness: one benchmark per figure of the paper's evaluation.
// Each benchmark regenerates its figure's data at a reduced (but
// shape-preserving) scale and reports the figure's headline values as
// custom benchmark metrics, so `go test -bench .` doubles as a compact
// reproduction report. The full-scale tables come from cmd/realtor-sim
// and cmd/realtor-cluster (see EXPERIMENTS.md).
package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"realtor/internal/agile"
	"realtor/internal/attack"
	"realtor/internal/engine"
	"realtor/internal/experiment"
	"realtor/internal/policy"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/transportfactory"
	"realtor/internal/workload"
)

// benchSweep runs the five-protocol sweep once per iteration and reports
// the chosen metric for REALTOR and the Push-1 reference at λ=7.
func benchSweep(b *testing.B, m experiment.Metric) {
	b.Helper()
	sc := experiment.FigureSweep([]float64{7}, 800, 1)
	protos := experiment.StandardProtocols(protocol.DefaultConfig())
	var series []experiment.Series
	for i := 0; i < b.N; i++ {
		sc.BaseSeed = int64(i + 1)
		series = experiment.RunSweep(sc, protos)
	}
	for _, s := range series {
		switch s.Label {
		case "REALTOR-100":
			b.ReportMetric(metricOf(s, m), "REALTOR@λ7")
		case "Push-1":
			b.ReportMetric(metricOf(s, m), "Push1@λ7")
		}
	}
}

func metricOf(s experiment.Series, m experiment.Metric) float64 {
	p := s.Points[0]
	switch m {
	case experiment.Admission:
		return p.Admission.Mean()
	case experiment.MessageUnits:
		return p.MessageUnits.Mean()
	case experiment.CostPerTask:
		return p.CostPerTask.Mean()
	default:
		return p.MigrationRate.Mean()
	}
}

// BenchmarkFig5AdmissionProbability regenerates Figure 5's data point at
// λ=7 for all five protocols.
func BenchmarkFig5AdmissionProbability(b *testing.B) {
	benchSweep(b, experiment.Admission)
}

// BenchmarkFig6MessageCount regenerates Figure 6's data point at λ=7.
func BenchmarkFig6MessageCount(b *testing.B) {
	benchSweep(b, experiment.MessageUnits)
}

// BenchmarkFig7CostPerTask regenerates Figure 7's data point at λ=7.
func BenchmarkFig7CostPerTask(b *testing.B) {
	benchSweep(b, experiment.CostPerTask)
}

// BenchmarkFig8MigrationRate regenerates Figure 8's data point at λ=7.
func BenchmarkFig8MigrationRate(b *testing.B) {
	benchSweep(b, experiment.MigrationRate)
}

// BenchmarkFig9LiveCluster measures REALTOR's admission probability on
// the live goroutine cluster (the paper's 20-host measurement, Figure 9)
// at one overloaded rate.
func BenchmarkFig9LiveCluster(b *testing.B) {
	cfg := agile.DefaultConfig()
	cfg.Hosts = 10
	cfg.TimeScale = 1000
	cfg.NegotiationTimeout = 100 * time.Millisecond
	mk, err := transportfactory.New("chan")
	if err != nil {
		b.Fatal(err)
	}
	admission := 0.0
	for i := 0; i < b.N; i++ {
		pts, err := agile.RunFigure9(cfg, []float64{5}, 5, 200, int64(i+1), mk)
		if err != nil {
			b.Fatal(err)
		}
		admission = pts[0].Stats.AdmissionProbability()
	}
	b.ReportMetric(admission, "admission@λ5")
}

// BenchmarkAttackSurvivability runs the A1 extension: REALTOR under a
// mid-run regional attack, reporting overall admission.
func BenchmarkAttackSurvivability(b *testing.B) {
	admission := 0.0
	for i := 0; i < b.N; i++ {
		cfg := engine.Config{
			Graph:               topology.Mesh(5, 5),
			QueueCapacity:       100,
			HopDelay:            0.01,
			Threshold:           0.9,
			Warmup:              100,
			Duration:            900,
			Seed:                int64(i + 1),
			RerouteDeadArrivals: true,
		}
		p := experiment.StandardProtocols(protocol.DefaultConfig())[4]
		e := engine.New(cfg, p.Build)
		attack.Region{Rows: 5, Cols: 5, R0: 0, R1: 2, C0: 0, C1: 2,
			At: 300, Revive: 600}.Apply(e)
		src := workload.NewPoisson(5, 5, 25, rng.New(int64(i+1)))
		admission = e.Run(src).AdmissionProbability()
	}
	b.ReportMetric(admission, "admission")
}

// BenchmarkScaleOverhead runs the A2 extension at two mesh sizes with
// 2-hop scoped floods (the multicast-group mechanism Section 5 assumes)
// and reports REALTOR's per-node overhead ratio (large/small); ≈1
// supports the paper's system-size-independence claim.
func BenchmarkScaleOverhead(b *testing.B) {
	p := experiment.StandardProtocols(protocol.DefaultConfig())[4]
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		st := experiment.DefaultScale(2)
		st.Sides = []int{4, 7}
		pts := experiment.RunScaleLarge(st, p, int64(i+1))
		if pts[0].UnitsPerNodeSec > 0 {
			ratio = pts[1].UnitsPerNodeSec / pts[0].UnitsPerNodeSec
		}
	}
	b.ReportMetric(ratio, "units/node-ratio-49v16")
}

// BenchmarkScaleLarge runs one full 50×50 (2500-node) cell of the
// large-mesh study per iteration — the size the paper's Section 5
// multicast-group argument targets but its simulation never reaches.
// Feasible only with the lazy per-row distance snapshots (an eager
// all-pairs matrix at this size is 2500² ints rebuilt per fault) and
// the stamp-BFS scope builder; reports admission and per-node overhead
// so the system-size-independence claim is checked at depth, not just
// at the 8×8 ceiling of BenchmarkScaleOverhead.
func BenchmarkScaleLarge(b *testing.B) {
	p := experiment.StandardProtocols(protocol.DefaultConfig())[4]
	st := experiment.ScaleLargeStudy{
		Sides:         []int{50},
		PerNodeLambda: 0.18,
		Radius:        2,
		Warmup:        20,
		Duration:      200,
	}
	b.ReportAllocs()
	var pt experiment.ScalePoint
	for i := 0; i < b.N; i++ {
		pt = experiment.RunScaleLarge(st, p, int64(i+1))[0]
	}
	b.ReportMetric(pt.Admission, "admission")
	b.ReportMetric(pt.UnitsPerNodeSec, "units/node-sec")
}

// linkMutations counts the effective link mutations of a run, as traced.
type linkMutations int

func (n *linkMutations) Record(ev trace.Event) {
	if ev.Kind == trace.LinkCut || ev.Kind == trace.LinkRestore {
		*n++
	}
}

// BenchmarkLinkChurnLarge measures fault handling at scale: a 2500-node
// mesh under continuous random link churn (cut + heal every simulated
// second). Each fault republishes a distance snapshot that carries every
// row the fault left unchanged, so the BFS rows built per mutation stay
// near the ~2·side a mid-mesh fault really changes plus what the
// protocol queries. The regression guarded is a return to dirtying every
// row per fault (≈ N = 2500 rows/mutation at this size). The counters
// come from the engine's live graph: the configured one is never
// mutated (copy-on-write) and counts nothing. Above topology's eager
// limit a dropped snapshot is refilled row by row, so it too shows in
// row-builds.
func BenchmarkLinkChurnLarge(b *testing.B) {
	p := experiment.StandardProtocols(protocol.DefaultConfig())[4]
	b.ReportAllocs()
	var rows, perMutation float64
	for i := 0; i < b.N; i++ {
		var mutations linkMutations
		cfg := engine.Config{
			Graph:         topology.Mesh(50, 50),
			QueueCapacity: 100,
			HopDelay:      0.01,
			Threshold:     0.9,
			FloodRadius:   2,
			Warmup:        10,
			Duration:      120,
			Seed:          int64(i + 1),
			Trace:         &mutations,
		}
		e := engine.New(cfg, p.Build)
		attack.LinkChurn{Start: 20, Until: 120, Interval: 1, Down: 5,
			Seed: int64(i + 1)}.Apply(e)
		e.Run(workload.NewPoisson(0.18*2500, 5, 2500, rng.New(int64(i+1))))
		st := e.Graph().DistStats()
		rows = float64(st.RowBuilds)
		perMutation = rows / float64(mutations)
	}
	b.ReportMetric(rows, "row-builds")
	b.ReportMetric(perMutation, "row-builds/mutation")
}

// BenchmarkShardedEngine runs the 50×50 scale-large cell on the
// conservative-parallel event kernel at 1/2/4/8 shards. The results are
// byte-identical across sub-benchmarks (the kernel's contract, enforced
// by internal/engine and internal/experiment tests); the ns/op spread
// is the kernel's parallel speedup, which tracks the core count —
// expect ≈1× on a single-core runner and scaling on real hardware.
func BenchmarkShardedEngine(b *testing.B) {
	p := experiment.StandardProtocols(protocol.DefaultConfig())[4]
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := experiment.ScaleLargeStudy{
				Sides:         []int{50},
				PerNodeLambda: 0.18,
				Radius:        2,
				Warmup:        20,
				Duration:      200,
				Shards:        shards,
			}
			b.ReportAllocs()
			var pt experiment.ScalePoint
			for i := 0; i < b.N; i++ {
				pt = experiment.RunScaleLarge(st, p, int64(i+1))[0]
			}
			b.ReportMetric(pt.Admission, "admission")
		})
	}
}

// BenchmarkAblationAlphaBeta runs the A3 extension: one α/β cell of the
// Algorithm H sensitivity study per iteration.
func BenchmarkAblationAlphaBeta(b *testing.B) {
	cost := 0.0
	for i := 0; i < b.N; i++ {
		pts := experiment.RunAlphaBeta([]float64{0.5}, []float64{0.5}, 7, int64(i+1))
		cost = pts[0].CostPerTask
	}
	b.ReportMetric(cost, "units/task")
}

// BenchmarkSweepParallel measures the parallel experiment runner on a
// CI-sized DefaultSweep shape (5 protocols × 10 λ × 3 replications = 150
// independent cells) at 1 worker and at GOMAXPROCS workers. On a
// multi-core box the workers=N case should finish the same sweep ≥2×
// faster than workers=1; on a single core the two are equivalent. Both
// produce bit-identical output (enforced by the regression test in
// internal/experiment).
func BenchmarkSweepParallel(b *testing.B) {
	protos := experiment.StandardProtocols(protocol.DefaultConfig())
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sc := experiment.FigureSweep([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 400, 3)
			sc.Workers = workers
			cells := 0
			for i := 0; i < b.N; i++ {
				sc.BaseSeed = int64(i + 1)
				series := experiment.RunSweep(sc, protos)
				for _, s := range series {
					for _, p := range s.Points {
						cells += len(p.Raw)
					}
				}
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkPolicyOverhead prices the traffic-protection middleware on
// the λ=7 throughput cell: "bare" is REALTOR without the policy layer,
// "off" wraps the builder with a disabled config (policy.New is the
// identity there, so ns/op must match bare within noise — the zero-cost
// claim of DESIGN.md §11), and "stack" runs the full default stack.
func BenchmarkPolicyOverhead(b *testing.B) {
	p := experiment.StandardProtocols(protocol.DefaultConfig())[4]
	stack := policy.DefaultStack()
	for _, v := range []struct {
		name string
		cfg  *policy.Config
	}{{"bare", nil}, {"off", &policy.Config{}}, {"stack", &stack}} {
		b.Run(v.name, func(b *testing.B) {
			build := p.Build
			if v.cfg != nil {
				build = policy.New(*v.cfg, build)
			}
			b.ReportAllocs()
			admission := 0.0
			for i := 0; i < b.N; i++ {
				cfg := engine.Config{
					Graph:         topology.Mesh(5, 5),
					QueueCapacity: 100,
					HopDelay:      0.01,
					Threshold:     0.9,
					Warmup:        0,
					Duration:      200,
					Seed:          int64(i + 1),
				}
				e := engine.New(cfg, build)
				admission = e.Run(workload.NewPoisson(7, 5, 25, rng.New(int64(i+1)))).AdmissionProbability()
			}
			b.ReportMetric(admission, "admission")
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator speed: simulated task
// arrivals processed per wall second under REALTOR at λ=7.
func BenchmarkEngineThroughput(b *testing.B) {
	p := experiment.StandardProtocols(protocol.DefaultConfig())[4]
	b.ReportAllocs()
	tasks := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := engine.Config{
			Graph:         topology.Mesh(5, 5),
			QueueCapacity: 100,
			HopDelay:      0.01,
			Threshold:     0.9,
			Warmup:        0,
			Duration:      200,
			Seed:          int64(i + 1),
		}
		e := engine.New(cfg, p.Build)
		st := e.Run(workload.NewPoisson(7, 5, 25, rng.New(int64(i+1))))
		tasks += st.Offered
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
	}
}

// BenchmarkDiscoveryCost is the D1 head-to-head in benchmark form: one
// fault-free discovery cell per protocol at 2.5k and 10k nodes, with the
// per-task message bill and the admission probability reported as custom
// metrics next to ns/op. The windows are shorter than the full sweep's
// (results/discovery.txt) but preserve its shape: flood-REALTOR's
// msg-units/task grows with N while DHT and HIER stay roughly flat.
func BenchmarkDiscoveryCost(b *testing.B) {
	st := experiment.DiscoveryStudy{
		Sides:   []int{50, 100},
		Warmups: []sim.Time{5, 5},
		// Hot-node backlog grows 3 s/s against the 90 s help threshold,
		// so the run must reach past t=30 or flood-REALTOR never sends
		// a message and the cell degenerates to zero cost.
		Durations:    []sim.Time{45, 40},
		HotNodes:     []int{8, 8},
		VerifyShards: []int{1},
		MeanSize:     2,
		HotTaskRate:  2,
		Background:   2,
		Seed:         8,
	}
	for si, side := range st.Sides {
		for _, proto := range experiment.DiscoveryProtocols() {
			b.Run(fmt.Sprintf("n=%d/%s", side*side, proto), func(b *testing.B) {
				b.ReportAllocs()
				var pt experiment.DiscoveryPoint
				for i := 0; i < b.N; i++ {
					var err error
					pt, err = experiment.RunDiscoveryOne(st, si, proto)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(pt.CostPerTask, "msg-units/task")
				b.ReportMetric(pt.Admission, "admission")
			})
		}
	}
}
