package main

import (
	"bytes"
	"fmt"
	"time"

	"realtor/internal/check"
	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
	"realtor/internal/metrics"
	"realtor/internal/scenario"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// cell is what one engine run needs, rebuilt per stage so every stage
// starts from the same pristine state.
type cell struct {
	config  func() engine.Config // fresh graph inside
	build   engine.Builder
	source  func(g *topology.Graph) workload.Source
	prepare func(e *engine.Engine) // fault schedule; nil for none
}

func (c cell) engine(cfg engine.Config, build engine.Builder) *engine.Engine {
	e := engine.New(cfg, build)
	if c.prepare != nil {
		c.prepare(e)
	}
	return e
}

// engineStages runs the engine-level part of the staged replica under
// parent and adds what it measured to l (sums, so a caller may fold
// several cells into one op): engine construction, the workload source
// drained alone, a run under the null protocol and a bare run of the
// real one.
func engineStages(tr *tracer, parent int, l layers, c cell) {
	cfg := c.config()
	var e *engine.Engine
	h0 := readHost()
	l["engine.new_s"] += tr.time("engine.New", parent, func() { e = c.engine(cfg, c.build) })
	l["engine.new_alloc_mb"] += mb(readHost().alloc - h0.alloc)

	tasks := 0
	gen := tr.time("workload.Source", parent, func() {
		src := c.source(cfg.Graph)
		for {
			t, ok := src.Next()
			if !ok || t.Arrive >= cfg.Duration {
				return
			}
			tasks++
		}
	})
	l["workload.tasks_per_op"] += float64(tasks)
	l["workload.gen_s_per_op"] += gen

	var st metrics.RunStats
	// A sweep shares one graph across its cells, so the distance counters
	// are read as a delta; a run that mutates works on a private clone
	// whose counters start at zero.
	before := cfg.Graph.DistStats()
	l["engine.run_bare_s"] += tr.time("engine.Run bare", parent, func() { st = e.Run(c.source(cfg.Graph)) })
	ks := e.KernelStats()
	l["sim.events_fired_per_op"] += float64(ks.Fired)
	l["sim.events_scheduled_per_op"] += float64(ks.Scheduled)
	l["_pool_reused"] += float64(ks.Reused)
	if hw := float64(ks.PoolSize); hw > l["sim.pool_high_water"] {
		l["sim.pool_high_water"] = hw
	}
	ds := e.Graph().DistStats()
	if e.Graph() != cfg.Graph {
		before = topology.DistStats{}
	}
	l["topology.row_builds_per_op"] += float64(ds.RowBuilds - before.RowBuilds)
	l["topology.full_builds_per_op"] += float64(ds.FullBuilds - before.FullBuilds)
	l["topology.rows_carried_per_op"] += float64(ds.RowsCarried - before.RowsCarried)
	l["protocol.help_msgs_per_op"] += float64(st.HelpMsgs)
	l["protocol.pledge_msgs_per_op"] += float64(st.PledgeMsgs)
	l["engine.msgs_per_op"] += float64(st.HelpMsgs + st.PledgeMsgs + st.AdvertMsgs + st.ControlMsgs)
	l["engine.msg_units_per_op"] += st.MessageUnits
	l["engine.migrations_per_op"] += float64(st.Migrated)
	l["_offered"] += float64(st.Offered)
	l["_admitted"] += float64(st.Admitted)

	cfg = c.config()
	e = c.engine(cfg, buildNull)
	l["engine.run_null_s"] += tr.time("engine.Run null", parent, func() { e.Run(c.source(cfg.Graph)) })
	l["_null_fired"] += float64(e.KernelStats().Fired)
}

// engineParts splits the bare engine run into budget parts that add up
// to it: the workload source, the scheduler floor under every event,
// what the null run spends above its own floor (arrivals, admission,
// queues), and what the discovery traffic adds above the floor of its
// events (protocol handlers and message delivery).
func engineParts(l layers) []part {
	perEvent := l["sim.floor_ns_per_event"] / 1e9
	nullFloor := perEvent * l["_null_fired"]
	floor := perEvent * l["sim.events_fired_per_op"]
	gen := l["workload.gen_s_per_op"]
	return []part{
		{"workload (source)", gen},
		{"sim (scheduler floor)", floor},
		{"engine (arrivals, admission)", l["engine.run_null_s"] - gen - nullFloor},
		{"protocol + engine (discovery traffic)", l["protocol.discovery_s_per_op"] - (floor - nullFloor)},
	}
}

// deriveLayers turns the sums the stages accumulated into the ratios
// and differences the metric names promise, adds the sim floor, leaving
// the "_" scratch keys for the caller to ignore.
func deriveLayers(l layers) {
	fired := l["sim.events_fired_per_op"]
	bare := l["engine.run_bare_s"]
	if sched := l["sim.events_scheduled_per_op"]; sched > 0 {
		l["sim.pool_reuse_ratio"] = l["_pool_reused"] / sched
	}
	l["sim.floor_ns_per_event"] = simFloor(uint64(fired), int(l["sim.pool_high_water"]))
	if bare > 0 {
		l["sim.floor_pct"] = 100 * l["sim.floor_ns_per_event"] * fired / 1e9 / bare
		l["engine.events_per_s"] = fired / bare
	}
	if fired > 0 {
		l["engine.ns_per_event"] = bare * 1e9 / fired
	}
	if tasks := l["workload.tasks_per_op"]; tasks > 0 {
		l["workload.gen_ns_per_task"] = l["workload.gen_s_per_op"] * 1e9 / tasks
	}
	if off := l["_offered"]; off > 0 {
		l["engine.admission_pct"] = 100 * l["_admitted"] / off
	}
	l["protocol.discovery_s_per_op"] = bare - l["engine.run_null_s"]
	l["core.handler_s_per_op"] = (l["protocol.help_msgs_per_op"]*l["core.deliver_help_ns"] +
		l["protocol.pledge_msgs_per_op"]*l["core.deliver_pledge_ns"] +
		l["workload.tasks_per_op"]*l["core.on_arrival_ns"] +
		l["engine.migrations_per_op"]*l["core.candidates_ns"]) / 1e9
	l["topology.mutation_s_per_op"] = l["topology.mutations_per_op"] *
		(l["topology.cutlink_ms"] + l["topology.restorelink_ms"]) / 2 / 1e3
}

// scenarioCell maps a scenario onto the engine stages the way the sim
// backend of internal/harness wires it.
func scenarioCell(s fuzzscen.Scenario, shards int) cell {
	return cell{
		config: func() engine.Config {
			cfg := s.EngineConfig(s.Graph())
			cfg.Shards = shards
			cfg.InlineHooks = true
			return cfg
		},
		build:  fuzzscen.Builder(s),
		source: s.Workload,
		prepare: func(e *engine.Engine) {
			for _, a := range s.Attacks() {
				a.Apply(e)
			}
		},
	}
}

// scenarioStages is the staged replica of one gated scenario op (decode
// → harness run → gate): it calls each layer's public entry point itself
// under a span, on the same deterministic cell, so that layers with no
// separable call can be attributed by difference between two stagings.
// It adds to l and returns the op's traced time (decode + harness run +
// gate).
func scenarioStages(tr *tracer, op int, l layers, spec []byte, golden *scenario.Golden, shards int) (float64, error) {
	root := tr.begin("replica", -1, op)
	defer tr.end(root)

	var sp scenario.Spec
	var err error
	decode := tr.time("scenario.DecodeSpec", root, func() { sp, err = scenario.DecodeSpec(spec) })
	if err != nil {
		return 0, err
	}
	s := sp.Effective()
	l["scenario.decode_us"] += decode * 1e6
	graph := tr.time("fuzzscen.Scenario.Graph", root, func() { s.Graph() })
	l["topology.build_s"] += graph

	c := scenarioCell(s, shards)
	newBefore, bareBefore := l["engine.new_s"], l["engine.run_bare_s"]
	engineStages(tr, root, l, c)
	bare := l["engine.run_bare_s"] - bareBefore

	// The trace the digest will be replayed over, from a run with no
	// oracle attached.
	cfg := c.config()
	buf := &trace.Buffer{}
	cfg.Trace = buf
	e := c.engine(cfg, c.build)
	tr.time("engine.Run capture", root, func() { e.Run(c.source(cfg.Graph)) })
	captured := buf.Events()
	mutations := 0
	for _, ev := range captured {
		if ev.Kind == trace.LinkCut || ev.Kind == trace.LinkRestore {
			mutations++
		}
	}
	l["topology.mutations_per_op"] += float64(mutations)
	l["scenario.trace_events_per_op"] += float64(len(captured))

	// The oracle run, wired as harness.RunCheckedOpts wires it.
	cfg = c.config()
	hooks := &harness.Hooks{}
	cfg.Trace, cfg.Observer = hooks, hooks
	e = c.engine(cfg, c.build)
	o := check.NewOracle(e)
	hooks.Bind(o)
	oracle := tr.time("engine.Run oracle", root, func() {
		e.Run(c.source(cfg.Graph))
		o.Finish(e.Scheduler().Now())
	})
	l["check.oracle_s_per_op"] += oracle - bare
	l["check.violations_per_op"] += float64(len(o.Violations()) + o.Dropped())

	dig := &scenario.Digest{}
	digest := tr.time("scenario.Digest.Record", root, func() {
		for _, ev := range captured {
			dig.Record(ev)
		}
	})
	l["scenario.digest_s_per_op"] += digest

	be := harness.SimSharded(shards)
	var out harness.Outcome
	hdig := &scenario.Digest{}
	whole := tr.time("harness.RunCheckedOpts", root, func() {
		out, err = harness.RunCheckedOpts(be, s, fuzzscen.Builder(s), harness.RunOptions{Trace: hdig})
	})
	if err != nil {
		return 0, err
	}
	if hdig.Sum() != dig.Sum() {
		return 0, fmt.Errorf("staged replica digest %s differs from the harness run's %s", dig.Sum(), hdig.Sum())
	}
	l["harness.run_s"] += whole
	l["harness.self_s"] += whole - graph - (l["engine.new_s"] - newBefore) - oracle - digest

	var sum scenario.Summary
	gate := tr.time("scenario gate", root, func() {
		sum = scenario.NewSummary(out.Stats, hdig)
		failed := len(sp.Expect.Check(sum)) > 0
		if golden != nil {
			failed = failed || scenario.Drifted(golden.Diff(sum))
		}
		if failed {
			err = fmt.Errorf("staged replica of %s missed its gate", sp.Name)
		}
		sink += len(scenario.EncodeSummary(sum))
	})
	if err != nil {
		return 0, err
	}
	l["scenario.gate_us"] += gate * 1e6

	if shards > 1 {
		l["shard.run_s2_s"] += whole
		var one harness.Outcome
		odig := &scenario.Digest{}
		l["shard.run_s1_s"] += tr.time("harness.RunCheckedOpts 1 shard", root, func() {
			one, err = harness.RunCheckedOpts(harness.SimSharded(1), s, fuzzscen.Builder(s), harness.RunOptions{Trace: odig})
		})
		if err != nil {
			return 0, err
		}
		if bytes.Equal(scenario.EncodeSummary(scenario.NewSummary(one.Stats, odig)), scenario.EncodeSummary(sum)) {
			l["shard.summary_identical"] = 1
		} else {
			return 0, fmt.Errorf("%s: 1-shard and %d-shard summaries differ", sp.Name, shards)
		}
		g := s.Graph()
		var assign []int32
		t := time.Now()
		assign = topology.ShardAssign(g, shards)
		l["shard.assign_ms"] += seconds(t) * 1e3
		l["shard.min_cross_dist"] = float64(topology.MinCrossShardDist(g, assign))
	}
	return decode + whole + gate, nil
}

// scenarioRatios fills the scenario-path ratios once the sums are in.
func scenarioRatios(l layers) {
	bare := l["engine.run_bare_s"]
	if ev := l["scenario.trace_events_per_op"]; ev > 0 {
		l["check.oracle_ns_per_event"] = l["check.oracle_s_per_op"] * 1e9 / ev
		l["scenario.digest_ns_per_event"] = l["scenario.digest_s_per_op"] * 1e9 / ev
	}
	if bare > 0 {
		l["check.overhead_pct"] = 100 * l["check.oracle_s_per_op"] / bare
	}
	if run := l["harness.run_s"]; run > 0 {
		l["harness.self_pct"] = 100 * l["harness.self_s"] / run
	}
	if s2 := l["shard.run_s2_s"]; s2 > 0 {
		l["shard.speedup_2v1"] = l["shard.run_s1_s"] / s2
	}
}
