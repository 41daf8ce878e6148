package harness

import (
	"context"

	"realtor/internal/check"
	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
	"realtor/internal/metrics"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// simBackend adapts the discrete-event engine: Start is pure wiring —
// scenario→engine.Config, fault schedule via attack.Scenario.Apply.
type simBackend struct {
	shards int
}

// Sim returns the discrete-event simulator backend.
func Sim() Backend { return simBackend{shards: 1} }

// SimSharded returns the simulator backend running the conservative-
// parallel kernel with n shards. Hooks fire inline from shard workers
// (the oracle audits node state at callback time, so it needs the live
// engine, not a post-phase replay), and the workers audit in parallel:
// each callback only touches the records of the node it names, which
// the firing worker owns, and the oracle locks the little that shards
// share (check.Oracle states the rule), so the inline path is
// race-free.
func SimSharded(n int) Backend { return simBackend{shards: n} }

// Name implements Backend.
func (simBackend) Name() string { return "sim" }

// Start implements Backend.
func (b simBackend) Start(s fuzzscen.Scenario, build engine.Builder, hooks *Hooks, onProgress func(Progress)) (Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := s.Graph()
	cfg := s.EngineConfig(g)
	cfg.Trace = hooks
	cfg.Observer = hooks
	cfg.Shards = b.shards
	cfg.InlineHooks = true
	if onProgress != nil {
		// Engine checkpoints fire only from quiescent points of the run
		// loop, so forwarding them cannot perturb the event order.
		cfg.OnProgress = func(p engine.Progress) {
			onProgress(Progress{Now: p.Now, End: p.End, Events: p.Events, Stats: p.Stats})
		}
	}
	e := engine.New(cfg, build)
	for _, a := range s.Attacks() {
		a.Apply(e)
	}
	return &simInstance{e: e, s: s, g: g}, nil
}

type simInstance struct {
	e *engine.Engine
	s fuzzscen.Scenario
	g *topology.Graph
}

// World implements Instance.
func (i *simInstance) World() check.World { return check.EngineWorld{E: i.e} }

// Run implements Instance.
func (i *simInstance) Run(ctx context.Context) metrics.RunStats {
	return i.e.RunCtx(ctx, i.s.Workload(i.g))
}

// Canceled implements Instance.
func (i *simInstance) Canceled() bool { return i.e.Canceled() }

// Now implements Instance.
func (i *simInstance) Now() sim.Time { return i.e.Scheduler().Now() }

// EachNodeSafe implements Instance: the sequential simulator is idle
// after Run, so every node is safely readable inline.
func (i *simInstance) EachNodeSafe(fn func(id topology.NodeID)) {
	for id := 0; id < i.g.N(); id++ {
		fn(topology.NodeID(id))
	}
}

// Close implements Instance (nothing to release).
func (i *simInstance) Close() {}
