package experiment

import (
	"realtor/internal/engine"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

// MeanTaskSize is the paper's mean task size, in seconds of work.
const MeanTaskSize = 5

// PaperCell returns the paper's Section 5 engine setup on graph g —
// 100-second queues, 0.01 s per hop, help threshold 0.9 — measuring
// [warmup, duration) and seeded with seed. The constants are written
// here and nowhere else: a study sets on the result only the fields it
// varies (LossProb, MaxTries, Groups, Attrs, Shards, OnOutcome, …).
func PaperCell(g *topology.Graph, warmup, duration sim.Time, seed int64) engine.Config {
	return engine.Config{
		Graph:         g,
		QueueCapacity: 100,
		HopDelay:      0.01,
		Threshold:     0.9,
		Warmup:        warmup,
		Duration:      duration,
		Seed:          seed,
	}
}

// PoissonSource returns the paper's workload for a cell: Poisson
// arrivals at rate lambda with mean size MeanTaskSize, spread uniformly
// over the cell's nodes and drawn from the cell's seed.
func PoissonSource(cfg engine.Config, lambda float64) *workload.Poisson {
	return workload.NewPoisson(lambda, MeanTaskSize, cfg.Graph.N(), rng.New(cfg.Seed))
}

// auditCell is nil outside this package's tests. A test sets it to see
// every study cell: it may attach observers to the configuration before
// the engine is built and is handed the engine before it runs — how the
// invariant oracle gets bound to the committed studies.
var auditCell func(engine.Config) (engine.Config, func(*engine.Engine))

// newCell builds the engine of one study cell.
func newCell(cfg engine.Config, build engine.Builder) *engine.Engine {
	if auditCell == nil {
		return engine.New(cfg, build)
	}
	cfg, built := auditCell(cfg)
	e := engine.New(cfg, build)
	built(e)
	return e
}
