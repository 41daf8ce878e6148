package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
	"realtor/internal/scenario"
)

// This file is realtor-scen's fuzz subcommand, the deterministic
// scenario fuzzer's driver. It sweeps generated scenarios
// (internal/fuzzscen) — or, given package names or -all, existing
// packages — through the invariant oracle, the fast-vs-reference
// differential and optionally the metamorphic relations. The lowest
// failing seed is shrunk and written as an unblessed package, so a
// counterexample is a reviewable regression file from the moment it is
// found, replayed by `run` and kept by `bless` like any other package.
//
// The sweep is deterministic: seed k always yields scenario k, and the
// workers change only wall-clock time, never which seeds fail or which
// counterexample is reported. The live backend runs on virtual time
// too, but the differential, the relations and shrinking are built on
// the engine, so they are off there.

// mutants are the seeded bugs -mutant selects. A mutant sweep passes
// only if the oracle catches the bug on at least one scenario.
var mutants = map[string]func(fuzzscen.Scenario) engine.Builder{
	"expiry": fuzzscen.MutantBuilder, // pledges served past their refresh window (I3)
}

// fuzzOptions is one parsed fuzz command line.
type fuzzOptions struct {
	dir     string // package root counterexamples are written under
	backend harness.Backend
	shards  int
	meta    bool
	live    harness.Backend // -parity's live leg; nil without -parity
	set     []*flag.Flag    // the flags given, for the printed replay commands

	// build is the protocol under test: the honest one, or the -mutant
	// seeded bug, which the oracle must catch (mutant names it).
	build  func(fuzzscen.Scenario) engine.Builder
	mutant string
}

// fuzzCase is one scenario to check: a generated seed's, named
// fuzz-<seed> and not yet on disk, or a loaded package's.
type fuzzCase struct {
	name      string
	s         fuzzscen.Scenario
	generated bool
}

// failure is one scenario's verdict: the layer that failed
// ("invariant", "differential", "relabel", "capacity", "flood-scope",
// "parity", "harness" for backend errors, or "mutant-escaped" when a
// mutant went uncaught) and what it said.
type failure struct {
	kind string
	desc string
}

func runFuzz(args []string, out, errw io.Writer) int {
	o, cases, code := parseFuzz(args, errw)
	if code != 0 {
		return code
	}
	return o.sweep(cases, out, errw)
}

// sweep checks every case and reports: the first catch under -mutant,
// otherwise the first failure.
func (o fuzzOptions) sweep(cases []fuzzCase, out, errw io.Writer) int {
	// Verdicts land in a slice indexed like cases, so the report is the
	// same whatever the worker interleaving: always the lowest failure.
	verdicts := make([]*failure, len(cases))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	next := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				verdicts[i] = o.check(cases[i].s)
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()

	if o.mutant != "" {
		return o.reportMutant(cases, verdicts, out)
	}
	first := slices.IndexFunc(verdicts, func(f *failure) bool { return f != nil })
	failed := len(cases) - countNil(verdicts)
	mode := o.backend.Name()
	if o.live != nil {
		mode = "parity"
	}
	fmt.Fprintf(out, "fuzz (%s): %s: %d failed\n", mode, describe(cases), failed)
	if first < 0 {
		return 0
	}
	return o.reportFailure(cases[first], verdicts[first], out, errw)
}

func parseFuzz(args []string, errw io.Writer) (fuzzOptions, []fuzzCase, int) {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	fs.SetOutput(errw)
	dir := fs.String("dir", "scenarios", "package root: named packages are read and counterexamples written here")
	all := fs.Bool("all", false, "check every package under -dir instead of generated seeds")
	seed := fs.Int64("seed", 1, "first generated seed (seeds seed..seed+n-1 are swept)")
	n := fs.Int("n", 100, "number of generated seeds")
	meta := fs.Bool("meta", false, "also check the metamorphic relations (relabel, capacity, flood scope; sim only)")
	mutant := fs.String("mutant", "", "run this seeded bug and demand the oracle catches it: expiry")
	backend := fs.String("backend", "sim", "backend: sim | live")
	shards := fs.Int("shards", 1, "sim kernel shard count")
	parity := fs.Bool("parity", false, "run each scenario on sim and live and compare aggregate metrics")
	if err := fs.Parse(args); err != nil {
		return fuzzOptions{}, nil, 2
	}
	usage := func(err error) (fuzzOptions, []fuzzCase, int) {
		fmt.Fprintf(errw, "realtor-scen: %v\n", err)
		return fuzzOptions{}, nil, 2
	}
	if *n <= 0 {
		return usage(fmt.Errorf("-n must be positive"))
	}
	be, err := scenario.Backend(*backend, *shards)
	if err != nil {
		return usage(err)
	}
	o := fuzzOptions{dir: *dir, backend: be, shards: *shards, meta: *meta, build: fuzzscen.Builder, mutant: *mutant}
	fs.Visit(func(f *flag.Flag) { o.set = append(o.set, f) })
	if o.mutant != "" {
		if o.build = mutants[o.mutant]; o.build == nil {
			return usage(fmt.Errorf("unknown -mutant %q (want expiry)", o.mutant))
		}
	}
	if *parity {
		o.live = harness.Live()
	}

	var cases []fuzzCase
	if !*all && fs.NArg() == 0 {
		for i := range int64(*n) {
			s := fuzzscen.Generate(*seed + i)
			cases = append(cases, fuzzCase{name: fmt.Sprintf("fuzz-%d", s.Seed), s: s, generated: true})
		}
		return o, cases, 0
	}
	dirs, code := selectPackages(fs.Args(), *dir, *all, errw)
	if code != 0 {
		return fuzzOptions{}, nil, code
	}
	for _, d := range dirs {
		p, err := scenario.LoadPackage(d)
		if err != nil {
			fmt.Fprintf(errw, "realtor-scen: %v\n", err)
			return fuzzOptions{}, nil, 1
		}
		cases = append(cases, fuzzCase{name: p.Spec.Name, s: p.Spec.Effective()})
	}
	return o, cases, 0
}

// deterministic reports whether the sweep runs only on the simulator,
// so that the differential, the relations and shrinking apply.
func (o fuzzOptions) deterministic() bool {
	return o.live == nil && o.backend.Name() == "sim"
}

// check runs every enabled layer on one scenario and returns the first
// that fails, or nil. Under -mutant the sense flips: nil means the
// oracle caught the seeded bug.
func (o fuzzOptions) check(s fuzzscen.Scenario) *failure {
	if o.mutant != "" {
		if res, err := harness.RunChecked(o.backend, s, o.build(s)); err == nil && res.Failed() {
			return nil
		}
		return &failure{kind: "mutant-escaped", desc: "scenario did not expose the seeded bug"}
	}
	if o.live != nil {
		rep, err := harness.Parity(s, o.live, o.build(s), harness.DefaultTolerance())
		if err != nil {
			return &failure{kind: "harness", desc: err.Error()}
		}
		if !rep.OK() {
			return &failure{kind: "parity", desc: rep.Table()}
		}
		return nil
	}
	res, err := harness.RunChecked(o.backend, s, o.build(s))
	if err != nil {
		return &failure{kind: "harness", desc: err.Error()}
	}
	if res.Failed() {
		return &failure{kind: "invariant", desc: violationText(res)}
	}
	if !o.deterministic() {
		return nil
	}
	if why, ok := fuzzscen.DifferentialShards(s, o.shards); !ok {
		return &failure{kind: "differential", desc: why}
	}
	if o.meta {
		if why, ok := fuzzscen.CheckRelabel(s, s.Seed+1<<32); !ok {
			return &failure{kind: "relabel", desc: why}
		}
		if why, ok := fuzzscen.CheckCapacity(s); !ok {
			return &failure{kind: "capacity", desc: why}
		}
		if why, ok := fuzzscen.CheckFloodScope(s); !ok {
			return &failure{kind: "flood-scope", desc: why}
		}
	}
	return nil
}

// reportFailure prints the failing case. A generated one is shrunk
// under the predicate of every enabled layer and written as an
// unblessed package under -dir; a package that fails is already on
// disk, so it is only reported. The exit status is always 1.
func (o fuzzOptions) reportFailure(c fuzzCase, f *failure, out, errw io.Writer) int {
	fmt.Fprintf(out, "\n%s failed the %s layer:\n%s\n", c.name, f.kind, f.desc)
	if !c.generated {
		return 1
	}
	s := c.s
	if o.deterministic() {
		s = fuzzscen.Shrink(s, func(c fuzzscen.Scenario) bool { return o.check(c) != nil })
		fmt.Fprintf(out, "shrunk to %d events, %.0fs\n", len(s.Events), s.Duration)
	}
	sp := scenario.Export(c.name, s)
	sp.Description = fmt.Sprintf("fuzz counterexample: seed %d fails the %s layer", c.s.Seed, f.kind)
	dir, err := scenario.WritePackage(o.dir, sp)
	if err != nil {
		fmt.Fprintf(errw, "realtor-scen: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "wrote %s (unblessed)\n", filepath.Join(dir, scenario.SpecFile))
	fmt.Fprintf(out, "replay: %s\n        %s  (oracle and expect bands only)\n",
		o.command("fuzz", c.name, "dir", "backend", "shards", "meta", "parity"),
		o.command("run", c.name, "dir", "backend", "shards"))
	fmt.Fprintf(out, "keep:   %s  (once the cause is fixed)\n", o.command("bless", c.name, "dir"))
	return 1
}

// reportMutant prints a mutant sweep's verdict and its first catch,
// shrunk on the simulator, as violations plus the canonical bytes of a
// scenario.json that replays it. A catch is the sweep succeeding, so
// nothing is written.
func (o fuzzOptions) reportMutant(cases []fuzzCase, verdicts []*failure, out io.Writer) int {
	caught := countNil(verdicts)
	fmt.Fprintf(out, "mutant sweep (%s, %s): %s, oracle caught the seeded bug in %d\n",
		o.backend.Name(), o.mutant, describe(cases), caught)
	if caught == 0 {
		fmt.Fprintf(out, "FAIL: the %s mutant escaped every scenario — the oracle has no teeth\n", o.mutant)
		return 1
	}
	c := cases[slices.Index(verdicts, nil)]
	s, schedule := c.s, "caught"
	if o.deterministic() && c.generated {
		s = fuzzscen.Shrink(s, func(c fuzzscen.Scenario) bool { return o.check(c) == nil })
		schedule = "shrunk"
	}
	res, err := harness.RunChecked(o.backend, s, o.build(s))
	if err != nil {
		fmt.Fprintf(out, "first catch %s (replay failed: %v)\n", c.name, err)
		return 0
	}
	fmt.Fprintf(out, "first catch %s; violations on the %s schedule:\n%s%s",
		c.name, schedule, violationText(res), scenario.Export(c.name, s).Canonical())
	return 0
}

// command renders a realtor-scen command line for the named package,
// carrying those of keep that this fuzz invocation set.
func (o fuzzOptions) command(verb, name string, keep ...string) string {
	cmd := "realtor-scen " + verb
	for _, f := range o.set {
		if slices.Contains(keep, f.Name) {
			cmd += fmt.Sprintf(" -%s=%s", f.Name, f.Value)
		}
	}
	return cmd + " " + name
}

func describe(cases []fuzzCase) string {
	if cases[0].generated {
		return fmt.Sprintf("%d scenarios (seeds %d..%d)", len(cases), cases[0].s.Seed, cases[len(cases)-1].s.Seed)
	}
	return fmt.Sprintf("%d package(s)", len(cases))
}

func countNil(verdicts []*failure) int {
	n := 0
	for _, v := range verdicts {
		if v == nil {
			n++
		}
	}
	return n
}

func violationText(res harness.Outcome) string {
	text := ""
	for i, v := range res.Violations {
		if i == 5 {
			text += fmt.Sprintf("  … %d more\n", len(res.Violations)-5+res.Dropped)
			break
		}
		text += "  " + v.String() + "\n"
	}
	return text
}
