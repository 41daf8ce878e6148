package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"realtor/internal/engine"
	"realtor/internal/experiment"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

// figSpec is bench/workloads/fig-sweep.json.
type figSpec struct {
	Lambdas      []float64 `json:"lambdas"`
	Duration     float64   `json:"duration"`
	Replications int       `json:"replications"`
	Workers      int       `json:"workers"`
}

// figReference is bench/reference/fig-sweep.json.
type figReference struct {
	Tables string `json:"tables"`
}

// figSweep regenerates the paper's Fig. 5–8 tables at reduced length:
// one op is a λ-sweep of all five protocols on the 5×5 mesh, rendered
// as the four tables. It bypasses harness, check, scenario and the
// daemon entirely.
type figSweep struct {
	env    *env
	sc     experiment.SweepConfig
	protos []experiment.Protocol
	want   []byte
}

var figMetrics = []experiment.Metric{
	experiment.Admission, experiment.MessageUnits, experiment.CostPerTask, experiment.MigrationRate,
}

// cellMetric names the per-protocol cell-time metric of a figure label.
var cellMetric = map[string]string{
	"Pull-.9":     "experiment.cell_ms.pull9",
	"Push-1":      "experiment.cell_ms.push1",
	"Push-.9":     "experiment.cell_ms.push9",
	"Pull-100":    "experiment.cell_ms.pull100",
	"REALTOR-100": "experiment.cell_ms.realtor",
}

func (w *figSweep) setUp(e *env) error {
	w.env = e
	data, err := e.workloadFile("fig-sweep")
	if err != nil {
		return err
	}
	var fs figSpec
	if err := json.Unmarshal(data, &fs); err != nil {
		return fmt.Errorf("fig-sweep.json: %w", err)
	}
	if e.smoke {
		fs.Lambdas, fs.Duration = fs.Lambdas[:1], 60
	}
	w.sc = experiment.FigureSweep(fs.Lambdas, sim.Time(fs.Duration), fs.Replications)
	w.sc.BaseSeed = e.seed
	w.sc.Workers = fs.Workers
	w.protos = experiment.StandardProtocols(protocol.DefaultConfig())
	w.want = nil
	if e.pinned() {
		data, err := os.ReadFile(referencePath(e.root, "fig-sweep"))
		if err != nil {
			return fmt.Errorf("%w (write it with -bless)", err)
		}
		var ref figReference
		if err := json.Unmarshal(data, &ref); err != nil {
			return fmt.Errorf("reference/fig-sweep.json: %w", err)
		}
		w.want = []byte(ref.Tables)
	}
	// Warm-up; unpinned inputs are blessed from it.
	first := w.run(w.sc)
	if w.want == nil {
		w.want = first
	}
	return w.check(first)
}

func tables(series []experiment.Series) []byte {
	var b strings.Builder
	for _, m := range figMetrics {
		fmt.Fprintf(&b, "%s\n%s\n", m, experiment.Table(series, m))
	}
	return []byte(b.String())
}

func (w *figSweep) run(sc experiment.SweepConfig) []byte {
	return tables(experiment.RunSweep(sc, w.protos))
}

func (w *figSweep) check(got []byte) error {
	if !bytes.Equal(got, w.want) {
		return fmt.Errorf("fig-sweep: tables differ from reference:\n%s\nwant:\n%s", got, w.want)
	}
	return nil
}

func (w *figSweep) clients() int { return 1 }

func (w *figSweep) op(int) error { return w.check(w.run(w.sc)) }

func (w *figSweep) reference() []byte {
	b, err := json.MarshalIndent(figReference{Tables: string(w.want)}, "", "  ")
	if err != nil {
		panic(err) // a string always marshals
	}
	return append(b, '\n')
}

func (w *figSweep) finish() layers { return nil }

func (w *figSweep) traceRound(tr *tracer, round int) (layers, budget, error) {
	l := layers{}
	op := tr.begin("op", -1, round)
	var series []experiment.Series
	sweep := tr.time("experiment.RunSweep", op, func() { series = experiment.RunSweep(w.sc, w.protos) })
	var out []byte
	tr.time("experiment.Table", op, func() { out = tables(series) })
	if err := w.check(out); err != nil {
		return nil, budget{}, err
	}
	l["_traced_op_s"] = tr.end(op)

	rep := tr.begin("replica", -1, round)
	serial := w.sc
	serial.Workers = 1
	l["experiment.serial_s"] = tr.time("experiment.RunSweep serial", rep, func() {
		series = experiment.RunSweep(serial, w.protos)
	})
	render := tr.time("experiment.Table", rep, func() { out = tables(series) })
	if err := w.check(out); err != nil {
		return nil, budget{}, err
	}
	cells := len(w.protos) * len(w.sc.Lambdas) * w.sc.Replications
	l["experiment.cells_per_op"] = float64(cells)
	l["experiment.cells_per_s"] = float64(cells) / sweep
	l["experiment.parallel_speedup"] = l["experiment.serial_s"] / sweep

	// Every cell of the sweep staged on its own, as runOnce builds it.
	g := w.sc.Engine.Graph
	for _, p := range w.protos {
		before := l["engine.new_s"] + l["engine.run_bare_s"]
		for _, lambda := range w.sc.Lambdas {
			for r := 0; r < w.sc.Replications; r++ {
				seed := w.sc.BaseSeed + int64(r)
				lambda := lambda
				engineStages(tr, rep, l, cell{
					config: func() engine.Config {
						cfg := w.sc.Engine
						cfg.Seed = seed
						return cfg
					},
					build: p.Build,
					source: func(*topology.Graph) workload.Source {
						return workload.NewPoisson(lambda, w.sc.MeanTaskSize, g.N(), rng.New(seed))
					},
				})
			}
		}
		perProto := float64(len(w.sc.Lambdas) * w.sc.Replications)
		l[cellMetric[p.Label]] = (l["engine.new_s"] + l["engine.run_bare_s"] - before) * 1e3 / perProto
	}
	l["topology.build_s"] = tr.time("topology.Mesh", rep, func() { topology.Mesh(5, 5) })
	tr.end(rep)

	pairs, iters := probeSizes(w.env.smoke)
	topologyLayer(l, func() *topology.Graph { return topology.Mesh(5, 5) }, w.env.seed, pairs)
	coreLayer(l, protocol.DefaultConfig(), iters)
	deriveLayers(l)

	whole := l["experiment.serial_s"] + render
	staged := l["engine.new_s"] + l["engine.run_bare_s"]
	parts := append([]part{{"engine (new)", l["engine.new_s"]}}, engineParts(l)...)
	return l, budget{whole: whole, parts: append(parts, part{"experiment (runner, tables)", whole - staged})}, nil
}
