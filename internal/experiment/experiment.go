// Package experiment runs the paper's evaluation: λ-sweeps of the five
// discovery protocols with independent replications, and renders the
// series behind Figures 5–8 as text tables or CSV. It also hosts the
// extension studies (scalability sweep A2 and the α/β ablation A3 of
// DESIGN.md).
package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/metrics"
	"realtor/internal/plot"
	"realtor/internal/protocol"
	"realtor/internal/protocol/baseline"
	"realtor/internal/protocol/gossip"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

// Protocol pairs a display label with a Discovery factory.
type Protocol struct {
	Label string
	Build engine.Builder
}

// StandardProtocols returns the paper's five contenders, in the order of
// the figure legends: Pull-.9, Push-1, Push-.9, Pull-100, REALTOR.
func StandardProtocols(cfg protocol.Config) []Protocol {
	return []Protocol{
		{"Pull-.9", func() protocol.Discovery { return baseline.NewPurePull(cfg) }},
		{"Push-1", func() protocol.Discovery { return baseline.NewPurePush(cfg) }},
		{"Push-.9", func() protocol.Discovery { return baseline.NewAdaptivePush(cfg) }},
		{"Pull-100", func() protocol.Discovery { return baseline.NewAdaptivePull(cfg) }},
		{"REALTOR-100", func() protocol.Discovery { return core.New(cfg) }},
	}
}

// GossipProtocol returns the modern push-pull anti-entropy comparator
// (experiment G1) configured for an n-node system.
func GossipProtocol(cfg protocol.Config, n int, seed int64) Protocol {
	return Protocol{
		Label: "Gossip-1",
		Build: func() protocol.Discovery {
			return gossip.New(gossip.Config{Protocol: cfg, N: n, Seed: seed})
		},
	}
}

// SweepConfig describes one λ-sweep.
type SweepConfig struct {
	Engine       engine.Config // template; Graph and timing fields are used
	Lambdas      []float64
	MeanTaskSize float64
	Replications int
	BaseSeed     int64
	// Workers caps the parallel cell executions for this sweep.
	// 0 defers to SetParallelism / GOMAXPROCS; 1 forces the sequential
	// reference path. Output is bit-identical at any setting.
	Workers int

	// Ctx, when non-nil, cancels the sweep cooperatively: workers stop
	// claiming new cells at the next opportunity, in-flight cells finish.
	// A cancelled sweep's Series hold zero values for the unrun cells, so
	// callers must check Ctx.Err() before using the result. nil means
	// run to completion.
	Ctx context.Context
}

// DefaultSweep returns the paper's Section 5 setup: 5×5 mesh, 100-second
// queues, task-size mean 5, λ from 1 to 10.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Engine:       PaperCell(topology.Mesh(5, 5), 200, 2200, 0),
		Lambdas:      []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		MeanTaskSize: MeanTaskSize,
		Replications: 3,
		BaseSeed:     1,
	}
}

// Point is one (protocol, λ) cell aggregated over replications.
type Point struct {
	Lambda        float64
	Admission     metrics.Replication
	MessageUnits  metrics.Replication
	CostPerTask   metrics.Replication
	MigrationRate metrics.Replication
	Raw           []metrics.RunStats
}

// Series is one protocol's sweep.
type Series struct {
	Label  string
	Points []Point
}

// RunSweep executes the full sweep. Replication r of every (protocol, λ)
// cell shares workload seed BaseSeed+r, so protocol comparisons are
// paired: every contender sees the identical task sequence.
//
// The (protocol, λ, replication) cells are fully independent — each owns
// its engine and rng streams — so they fan out across sc.Workers
// goroutines. Raw results land in a flat slice indexed by cell, and the
// aggregation below walks that slice in exactly the order the old
// sequential loop observed values, so RunSweep's output (including every
// float summation in metrics.Replication) is bit-identical whatever the
// worker count.
func RunSweep(sc SweepConfig, protos []Protocol) []Series {
	if sc.Replications <= 0 {
		panic("experiment: need at least one replication")
	}
	ctx := sc.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	nL, nR := len(sc.Lambdas), sc.Replications
	raw := collectCtx(ctx, len(protos)*nL*nR, sc.Workers, func(i int) metrics.RunStats {
		pi := i / (nL * nR)
		li := i % (nL * nR) / nR
		r := i % nR
		return runOnce(sc, protos[pi], sc.Lambdas[li], sc.BaseSeed+int64(r))
	})
	out := make([]Series, len(protos))
	for pi := range protos {
		out[pi].Label = protos[pi].Label
		out[pi].Points = make([]Point, 0, nL)
		for li, lambda := range sc.Lambdas {
			pt := Point{Lambda: lambda}
			for r := 0; r < nR; r++ {
				st := raw[(pi*nL+li)*nR+r]
				pt.Raw = append(pt.Raw, st)
				pt.Admission.Observe(st.AdmissionProbability())
				pt.MessageUnits.Observe(st.MessageUnits)
				pt.CostPerTask.Observe(st.CostPerAdmitted())
				pt.MigrationRate.Observe(st.MigrationRate())
			}
			out[pi].Points = append(out[pi].Points, pt)
		}
	}
	return out
}

func runOnce(sc SweepConfig, p Protocol, lambda float64, seed int64) metrics.RunStats {
	ecfg := sc.Engine
	ecfg.Seed = seed
	src := workload.NewPoisson(lambda, sc.MeanTaskSize, ecfg.Graph.N(), rng.New(seed))
	return newCell(ecfg, p.Build).Run(src)
}

// Metric selects which figure's y-value to render.
type Metric int

// The four y-axes of the paper's simulation figures.
const (
	Admission     Metric = iota // Fig. 5
	MessageUnits                // Fig. 6
	CostPerTask                 // Fig. 7
	MigrationRate               // Fig. 8
)

// String names the metric as in the paper's figure captions.
func (m Metric) String() string {
	switch m {
	case Admission:
		return "admission-probability"
	case MessageUnits:
		return "number-of-messages"
	case CostPerTask:
		return "message-cost-per-task"
	case MigrationRate:
		return "migration-rate"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

func (m Metric) value(p Point) *metrics.Replication {
	switch m {
	case Admission:
		return &p.Admission
	case MessageUnits:
		return &p.MessageUnits
	case CostPerTask:
		return &p.CostPerTask
	case MigrationRate:
		return &p.MigrationRate
	default:
		panic("experiment: unknown metric")
	}
}

// Table renders a fixed-width text table: one row per λ, one column per
// protocol, mean values of the chosen metric.
func Table(series []Series, m Metric) string {
	if len(series) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "lambda")
	for _, s := range series {
		fmt.Fprintf(&b, "%14s", s.Label)
	}
	b.WriteByte('\n')
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%-8.3g", series[0].Points[i].Lambda)
		for _, s := range series {
			fmt.Fprintf(&b, "%14.4f", m.value(s.Points[i]).Mean())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Chart renders the sweep as an ASCII line chart (the paper's figures,
// drawn in the terminal).
func Chart(series []Series, m Metric) string {
	var ps []plot.Series
	for _, s := range series {
		var xs, ys []float64
		for _, p := range s.Points {
			xs = append(xs, p.Lambda)
			ys = append(ys, m.value(p).Mean())
		}
		ps = append(ps, plot.Series{Label: s.Label, X: xs, Y: ys})
	}
	return plot.Render(plot.Config{
		Width:  64,
		Height: 18,
		Title:  m.String(),
		XLabel: "lambda (tasks/s)",
		YLabel: m.String(),
	}, ps...)
}

// CSV renders the same data as comma-separated values with a header,
// including the 95% confidence half-width per cell.
func CSV(series []Series, m Metric) string {
	var b strings.Builder
	b.WriteString("lambda")
	for _, s := range series {
		fmt.Fprintf(&b, ",%s,%s_ci95", s.Label, s.Label)
	}
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%g", series[0].Points[i].Lambda)
		for _, s := range series {
			v := m.value(s.Points[i])
			fmt.Fprintf(&b, ",%g,%g", v.Mean(), v.CI95())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ScalePoint is one system size of the scalability study (A2): the mean
// per-node, per-second discovery overhead in message units.
type ScalePoint struct {
	Nodes            int
	Links            int
	UnitsPerNodeSec  float64
	Admission        float64
	UnitsTotal       float64
	HelpsPlusAdverts uint64
}

// ScaleLargeStudy parameterizes the scalability studies: discovery
// overhead across square meshes at a fixed per-node load (λ scales with
// N so each node sees the same traffic). The paper claims REALTOR's
// overhead is "system-size independent" in per-node terms — while
// assuming "a mechanism in place limiting the scope of neighbors, for
// example, as an IP multicast group". Radius 0 floods system-wide (the
// paper's 25-node setting); Radius > 0 bounds every flood to that many
// hops, which is what makes the per-node overhead flat as the system
// grows — and what the large meshes (A2-L) need: system-wide floods at
// N=2500 would measure the flood itself, not the protocol.
type ScaleLargeStudy struct {
	Sides         []int   // mesh side lengths (316 → 99 856 nodes)
	PerNodeLambda float64 // arrivals/sec per node
	Radius        int     // flood scope, hops; 0 = system-wide
	Warmup        sim.Time
	Duration      sim.Time
	// Shards selects the event kernel: 0 or 1 runs the classic
	// single-threaded scheduler, > 1 the conservative-parallel one.
	// Results are byte-identical either way (DESIGN.md §10).
	Shards int
}

// DefaultScale returns the study behind results/scale.txt (A2): the
// meshes around the paper's 5×5, at the given flood radius.
func DefaultScale(radius int) ScaleLargeStudy {
	return ScaleLargeStudy{
		Sides:         []int{3, 4, 5, 6, 7, 8},
		PerNodeLambda: 0.18,
		Radius:        radius,
		Warmup:        100,
		Duration:      1100,
	}
}

// DefaultScaleLarge returns the study configuration behind
// results/scale_large.txt: sides 10..316 (100 → ~100 000 nodes), the
// same per-node load and 2-hop scope as the committed A2(b) study, and
// a shorter window — the point is scaling behaviour, not tight CIs.
func DefaultScaleLarge() ScaleLargeStudy {
	return ScaleLargeStudy{
		Sides:         []int{10, 20, 30, 40, 50, 100, 200, 316},
		PerNodeLambda: 0.18,
		Radius:        2,
		Warmup:        50,
		Duration:      550,
	}
}

// RunScaleLarge executes a scalability study for one protocol. Each
// size is one deterministic engine run, at the Poisson rate that holds
// the per-node load constant there; sizes fan out over the configured
// worker pool like every other study (byte-identical output at any
// worker count).
//
// The large sides are the workload the incremental topology layer
// exists for: at side 50 the old eager all-pairs snapshot costs O(V²·E)
// per link event and ~50 MB per materialized matrix, while the
// on-demand row path keeps memory proportional to the rows actually
// queried.
func RunScaleLarge(st ScaleLargeStudy, p Protocol, seed int64) []ScalePoint {
	return collect(len(st.Sides), 0, func(i int) ScalePoint {
		g := topology.Mesh(st.Sides[i], st.Sides[i])
		cfg := PaperCell(g, st.Warmup, st.Duration, seed)
		cfg.FloodRadius = st.Radius
		cfg.Shards = st.Shards
		stats := newCell(cfg, p.Build).Run(PoissonSource(cfg, st.PerNodeLambda*float64(g.N())))
		return ScalePoint{
			Nodes:            g.N(),
			Links:            g.Links(),
			UnitsPerNodeSec:  stats.MessageUnits / float64(g.N()) / float64(st.Duration-st.Warmup),
			Admission:        stats.AdmissionProbability(),
			UnitsTotal:       stats.MessageUnits,
			HelpsPlusAdverts: stats.HelpMsgs + stats.AdvertMsgs,
		}
	})
}

// ScaleTable renders the scalability study.
func ScaleTable(points []ScalePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s%-8s%-18s%-14s%-14s\n",
		"nodes", "links", "units/node/sec", "admission", "floods")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8d%-8d%-18.4f%-14.4f%-14d\n",
			p.Nodes, p.Links, p.UnitsPerNodeSec, p.Admission, p.HelpsPlusAdverts)
	}
	return b.String()
}

// AblationPoint is one (α, β) cell of the Algorithm H sensitivity study.
type AblationPoint struct {
	Alpha, Beta float64
	Admission   float64
	CostPerTask float64
	Helps       uint64
}

// RunAlphaBeta sweeps Algorithm H's penalty/reward factors for REALTOR at
// a fixed load, quantifying the design choice the paper leaves "subject
// to the local resource manager".
func RunAlphaBeta(alphas, betas []float64, lambda float64, seed int64) []AblationPoint {
	base := protocol.DefaultConfig()
	out := collect(len(alphas)*len(betas), 0, func(i int) AblationPoint {
		a, bta := alphas[i/len(betas)], betas[i%len(betas)]
		cfg := base
		cfg.Alpha, cfg.Beta = a, bta
		ecfg := PaperCell(topology.Mesh(5, 5), 200, 1200, seed)
		e := newCell(ecfg, func() protocol.Discovery { return core.New(cfg) })
		st := e.Run(PoissonSource(ecfg, lambda))
		return AblationPoint{
			Alpha:       a,
			Beta:        bta,
			Admission:   st.AdmissionProbability(),
			CostPerTask: st.CostPerAdmitted(),
			Helps:       st.HelpMsgs,
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Alpha != out[j].Alpha {
			return out[i].Alpha < out[j].Alpha
		}
		return out[i].Beta < out[j].Beta
	})
	return out
}

// AblationTable renders the α/β study.
func AblationTable(points []AblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s%-8s%-14s%-16s%-10s\n", "alpha", "beta", "admission", "cost/task", "helps")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.2f%-8.2f%-14.4f%-16.2f%-10d\n",
			p.Alpha, p.Beta, p.Admission, p.CostPerTask, p.Helps)
	}
	return b.String()
}

// FigureSweep narrows a sweep's duration/replications for quick runs
// (tests, benchmarks) while keeping the paper's topology and parameters.
func FigureSweep(lambdas []float64, duration sim.Time, reps int) SweepConfig {
	sc := DefaultSweep()
	sc.Lambdas = lambdas
	sc.Engine.Warmup = duration / 10
	sc.Engine.Duration = duration
	sc.Replications = reps
	return sc
}

// PairedDiff computes, per λ, the replication-paired difference of a
// metric between each series and the base series (replication r of every
// protocol shares workload seed BaseSeed+r, so differences cancel the
// workload noise). It returns one row per λ with "mean ± ci95" cells per
// non-base protocol — the statistically honest way to rank protocols
// whose curves sit within each other's marginal CIs.
func PairedDiff(series []Series, m Metric, baseLabel string) (string, error) {
	var base *Series
	for i := range series {
		if series[i].Label == baseLabel {
			base = &series[i]
		}
	}
	if base == nil {
		return "", fmt.Errorf("experiment: base series %q not found", baseLabel)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "paired difference vs %s (%s)\n", baseLabel, m)
	fmt.Fprintf(&b, "%-8s", "lambda")
	for _, s := range series {
		if s.Label == baseLabel {
			continue
		}
		fmt.Fprintf(&b, "%22s", s.Label)
	}
	b.WriteByte('\n')
	for pi, bp := range base.Points {
		fmt.Fprintf(&b, "%-8.3g", bp.Lambda)
		for _, s := range series {
			if s.Label == baseLabel {
				continue
			}
			var diff metrics.Replication
			for r := range bp.Raw {
				diff.Observe(rawMetric(s.Points[pi].Raw[r], m) - rawMetric(bp.Raw[r], m))
			}
			fmt.Fprintf(&b, "%22s", diff.Format())
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func rawMetric(st metrics.RunStats, m Metric) float64 {
	switch m {
	case Admission:
		return st.AdmissionProbability()
	case MessageUnits:
		return st.MessageUnits
	case CostPerTask:
		return st.CostPerAdmitted()
	case MigrationRate:
		return st.MigrationRate()
	default:
		panic("experiment: unknown metric")
	}
}
