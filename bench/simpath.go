package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"realtor/internal/harness"
	"realtor/internal/scenario"
)

// env is what a workload is set up from: the checkout, the workload
// seed, a private temp directory, and whether to run at smoke size.
type env struct {
	root  string
	seed  int64
	smoke bool
	bless bool
	dir   string
}

func (e *env) workloadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(e.root, "bench", "workloads", name+".json"))
}

func referencePath(root, name string) string {
	return filepath.Join(root, "bench", "reference", name+".json")
}

// pinned reports whether outputs are compared to the committed
// reference: only the full-size seed-1 inputs have one, and -bless is
// what writes it.
func (e *env) pinned() bool { return e.seed == 1 && !e.smoke && !e.bless }

// benchWorkload is one benchmark workload. Every op checks its own output
// and returns an error when it is wrong, refused or failed.
type benchWorkload interface {
	// setUp builds the inputs from the seed, boots whatever serves the
	// ops, and runs the untimed warm-up ops.
	setUp(e *env) error
	// clients is how many goroutines drive op in the closed loop.
	clients() int
	// op runs one operation for client c.
	op(c int) error
	// reference returns the bytes -bless pins for seed 1.
	reference() []byte
	// traceRound runs one traced round — the op with spans around the
	// calls it is made of, then the staged replica — and returns the
	// round's per-layer samples and its budget.
	traceRound(tr *tracer, round int) (layers, budget, error)
	// finish stops everything setUp started; it returns end-of-run
	// per-layer metrics, if the workload has any.
	finish() layers
}

// budget is one traced op split into the parts the staged replica
// measured; whole is the traced op's own time.
type budget struct {
	whole float64
	parts []part
}

type part struct {
	layer string
	s     float64
}

// simPath is the gated scenario path (`realtor-scen run`): one op decodes
// the generated scenario.json, runs it through scenario.RunWith on the
// sim backend with the oracle and the trace digest attached, and gates
// the summary against bands and golden.
type simPath struct {
	name   string
	shards int
	env    *env
	spec   []byte
	golden *scenario.Golden
	be     harness.Backend
}

// seedSpec derives every seed the scenario holds from the workload seed.
func seedSpec(sp *scenario.Spec, seed int64) {
	sp.Scenario.Seed = seed
	sp.Scenario.EngineSeed = seed*1000 + 1
	sp.Scenario.WorkSeed = seed*1000 + 2
	for i := range sp.Scenario.Events {
		if sp.Scenario.Events[i].Op == "churn" {
			sp.Scenario.Events[i].Seed = seed*1000 + 3
		}
	}
}

// shrink cuts a cell to smoke size: a 12×12 mesh for 8 simulated
// seconds at the same per-node load, faults moved inside the mesh and
// the window.
func shrink(sp *scenario.Spec) {
	s := &sp.Scenario
	perNode := s.Lambda / float64(s.Rows*s.Cols)
	scale := 8 / s.Duration
	s.Rows, s.Cols, s.Duration = 12, 12, 8
	s.Lambda = perNode * float64(s.Rows*s.Cols)
	for i := range s.Events {
		ev := &s.Events[i]
		ev.At *= scale
		ev.Until *= scale
		ev.Interval *= scale
		ev.Down *= scale
		ev.Node %= s.Rows * s.Cols
	}
	sp.Expect = scenario.Bands{AdmissionMaxPct: 100, MaxRejectPct: 100}
}

func (w *simPath) setUp(e *env) error {
	w.env = e
	tmpl, err := e.workloadFile(w.name)
	if err != nil {
		return err
	}
	sp, err := scenario.DecodeSpec(tmpl)
	if err != nil {
		return err
	}
	seedSpec(&sp, e.seed)
	if e.smoke {
		shrink(&sp)
	}
	dir, err := scenario.WritePackage(e.dir, sp)
	if err != nil {
		return err
	}
	if w.spec, err = os.ReadFile(filepath.Join(dir, scenario.SpecFile)); err != nil {
		return err
	}
	if w.be, err = scenario.Backend("sim", w.shards); err != nil {
		return err
	}
	w.golden = nil
	if e.pinned() {
		data, err := os.ReadFile(referencePath(e.root, w.name))
		if err != nil {
			return fmt.Errorf("%w (write it with -bless)", err)
		}
		g, err := scenario.DecodeGolden(data)
		if err != nil {
			return err
		}
		w.golden = &g
	}
	// Warm-up, on one shard. Unpinned inputs are blessed from it, so every
	// later op must reproduce it byte for byte; for a sharded workload that
	// makes each op a check that the shard count does not change the
	// result, and a second warm-up follows on the real shard count.
	one, err := scenario.Backend("sim", 1)
	if err != nil {
		return err
	}
	res, err := w.run(one, 1)
	if err != nil {
		return err
	}
	if w.golden == nil {
		w.golden = &scenario.Golden{Summary: res.Summary}
	}
	if err := w.check(res); err != nil || w.shards == 1 {
		return err
	}
	return w.op(0)
}

func (w *simPath) run(be harness.Backend, shards int) (scenario.Result, error) {
	sp, err := scenario.DecodeSpec(w.spec)
	if err != nil {
		return scenario.Result{}, err
	}
	return scenario.RunWith(&scenario.Package{Spec: sp, Golden: w.golden}, be, shards, scenario.RunConfig{})
}

// check fails the op on an oracle violation, a band miss, golden drift
// or any byte of difference in the canonical summary.
func (w *simPath) check(res scenario.Result) error {
	if res.Failed() {
		return fmt.Errorf("%s: %s", w.name, res.Explain())
	}
	if got, want := scenario.EncodeSummary(res.Summary), scenario.EncodeSummary(w.golden.Summary); !bytes.Equal(got, want) {
		return fmt.Errorf("%s: summary %s differs from reference %s", w.name, got, want)
	}
	return nil
}

func (w *simPath) clients() int { return 1 }

func (w *simPath) op(int) error {
	res, err := w.run(w.be, w.shards)
	if err != nil {
		return err
	}
	return w.check(res)
}

func (w *simPath) reference() []byte { return w.golden.Canonical() }

func (w *simPath) finish() layers { return nil }

// probeSizes are the iteration counts of the layer probes.
func probeSizes(smoke bool) (distPairs, coreIters int) {
	if smoke {
		return 20_000, 5_000
	}
	return 1_000_000, 200_000
}

func (w *simPath) traceRound(tr *tracer, round int) (layers, budget, error) {
	l := layers{}
	op := tr.begin("op", -1, round)
	var sp scenario.Spec
	var res scenario.Result
	var err error
	tr.time("scenario.DecodeSpec", op, func() { sp, err = scenario.DecodeSpec(w.spec) })
	if err != nil {
		return nil, budget{}, err
	}
	tr.time("scenario.RunWith", op, func() {
		res, err = scenario.RunWith(&scenario.Package{Spec: sp, Golden: w.golden}, w.be, w.shards, scenario.RunConfig{})
	})
	if err != nil {
		return nil, budget{}, err
	}
	tr.time("check output", op, func() { err = w.check(res) })
	if err != nil {
		return nil, budget{}, err
	}
	l["_traced_op_s"] = tr.end(op)

	s := sp.Effective()
	pairs, iters := probeSizes(w.env.smoke)
	topologyLayer(l, s.Graph, w.env.seed, pairs)
	coreLayer(l, s.ProtocolConfig(), iters)
	whole, err := scenarioStages(tr, round, l, w.spec, w.golden, w.shards)
	if err != nil {
		return nil, budget{}, err
	}
	deriveLayers(l)
	scenarioRatios(l)
	return l, scenarioBudget(l, whole), nil
}

// scenarioBudget splits a traced scenario op into its layers' shares.
// harness is the remainder of the whole harness run once the separately
// staged calls are taken out, so the parts add up to the op exactly; a
// negative remainder means a stage ran slower alone than inside the
// whole.
func scenarioBudget(l layers, whole float64) budget {
	parts := []part{
		{"scenario (decode, gate)", (l["scenario.decode_us"] + l["scenario.gate_us"]) / 1e6},
		{"topology (build)", l["topology.build_s"]},
		{"engine (new)", l["engine.new_s"]},
	}
	parts = append(parts, engineParts(l)...)
	return budget{whole: whole, parts: append(parts,
		part{"check (oracle)", l["check.oracle_s_per_op"]},
		part{"scenario (digest)", l["scenario.digest_s_per_op"]},
		part{"harness (self)", l["harness.self_s"]},
	)}
}
