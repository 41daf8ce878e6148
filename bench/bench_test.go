package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary:
// runAll re-executes os.Executable() once per workload, and under
// `go test` that is this binary.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// The acceptance rule is stated in terms of Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{10, 20}); !near(q1, 7.5) || !near(q3, 22.5) {
		t.Errorf("quartiles(10,20) = %v, %v", q1, q3)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 5.5/5.5", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v", got)
	}
}

func TestBoundArithmetic(t *testing.T) {
	if got := worseBy(10, 11, "lower"); !near(got, 0.1) {
		t.Errorf("lower-is-better 10→11 = %v", got)
	}
	if got := worseBy(10, 11, "higher"); !near(got, -0.1) {
		t.Errorf("higher-is-better 10→11 = %v", got)
	}
	if !withinBound([]float64{100, 104, 109}, "lower", 0.10) {
		t.Error("9% apart flagged at a 10% bound")
	}
	if withinBound([]float64{100, 112}, "lower", 0.10) {
		t.Error("12% slower passed a 10% bound")
	}
	if withinBound([]float64{100, 88}, "higher", 0.10) {
		t.Error("12% less throughput passed a 10% bound")
	}
}

func TestSpanTreeAndSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1, 7)
	a := tr.begin("a", root, 7)
	leaf := tr.begin("leaf", a, 7)
	tr.end(leaf)
	tr.end(a)
	tr.time("b", root, func() {})
	tr.end(root)
	// Pin the clock readings so the arithmetic is exact.
	tr.spans[root].Start, tr.spans[root].End = 0, 10
	tr.spans[a].Start, tr.spans[a].End = 1, 5
	tr.spans[leaf].Start, tr.spans[leaf].End = 2, 3
	tr.spans[3].Start, tr.spans[3].End = 6, 8
	if tr.spans[3].Parent != root || tr.spans[3].Op != 7 {
		t.Errorf("time() span = %+v, want parent %d op 7", tr.spans[3], root)
	}
	self := selfTimes(tr.spans)
	for id, want := range []float64{4, 3, 1, 2} {
		if !near(self[id], want) {
			t.Errorf("self time of %s = %v, want %v", tr.spans[id].Name, self[id], want)
		}
	}
	if by := selfByName(tr.spans); !near(by["op"], 4) || !near(by["leaf"], 1) {
		t.Errorf("selfByName = %v", by)
	}

	other := &tracer{t0: tr.t0}
	j := other.begin("job", -1, 1)
	other.end(other.begin("POST", j, 1))
	other.end(j)
	tr.merge(other)
	if n := len(tr.spans); n != 6 || tr.spans[4].Parent != -1 || tr.spans[5].Parent != 4 || tr.spans[5].ID != 5 {
		t.Errorf("merge broke the tree: %+v", tr.spans[4:])
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}

func TestCompareSets(t *testing.T) {
	decl := declaration{EndToEnd: []metricDecl{{Name: "op_s_p50", Unit: "s", Better: "lower", Bound: 0.1}}}
	decl.Workloads = append(decl.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(v float64) map[string]result {
		return map[string]result{"w": {Metrics: map[string]measured{"op_s_p50": {Value: v, Unit: "s"}}}}
	}
	if n := compareSets(decl, []map[string]result{set(1), set(1.05)}); n != 0 {
		t.Errorf("5%% apart: %d pairs moved", n)
	}
	if n := compareSets(decl, []map[string]result{set(1), set(1.05), set(1.2)}); n != 1 {
		t.Errorf("20%% apart: %d pairs moved, want 1", n)
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func declared(t *testing.T) (string, declaration) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, decl
}

// TestDeclarationMeetsContract checks BENCHMARK.json against the limits
// the benchmark driver enforces before a single run.
func TestDeclarationMeetsContract(t *testing.T) {
	_, decl := declared(t)
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range decl.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	setup := false
	for _, m := range append(append([]metricDecl{}, decl.EndToEnd...), decl.PerLayer...) {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range decl.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmokeEveryWorkload runs every workload once at reduced size, with
// tracing off and on, and holds the emitted metric names to the ones
// BENCHMARK.json declares: every declared name present, none besides,
// and no per-layer name that every workload leaves at zero (a renamed
// key would show up as exactly that).
func TestSmokeEveryWorkload(t *testing.T) {
	root, decl := declared(t)
	// The two counts of things that must not happen.
	idle := map[string]bool{"check.violations_per_op": true, "runsvc.rejected_per_1k": true}
	moved := map[string]bool{}
	for _, w := range decl.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(runConfig{root: root, decl: decl, workload: w.Name, seed: 3,
				seconds: 1, trace: trace, smoke: true, out: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %+v", w.Name, trace, res)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.Name, trace, m.Name, got, ok)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
				if got.Value != 0 {
					moved[m.Name] = true
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(outDir(root), "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
	for _, m := range decl.PerLayer {
		if !moved[m.Name] && !idle[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload sets it", m.Name)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(outDir(root), "tmp-*")); len(left) > 0 {
		t.Errorf("temp state left behind: %v", left)
	}
}

// TestRunAllSmoke drives the whole program the way `go run ./bench
// -smoke` does — one child process per workload and pass — and checks
// the machine-readable report.
func TestRunAllSmoke(t *testing.T) {
	root, decl := declared(t)
	t.Setenv("BENCH_AS_MAIN", "1")
	if err := run(root, options{seed: 5, seconds: 1, repeat: 1, smoke: true}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(outDir(root), "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		if !regexp.MustCompile(`"` + w.Name + `"`).Match(data) {
			t.Errorf("results.json has no %s", w.Name)
		}
	}
	if err := run(root, options{workload: "no-such-workload", seed: 1, seconds: 1, smoke: true}); err == nil {
		t.Error("unknown workload accepted")
	}
}
