// Command bench is the repository's benchmark: five workloads, four
// end-to-end metrics measured with tracing off, and a separate traced
// pass that gives the per-layer numbers. BENCHMARK.json declares the
// names, units and bounds; README.md explains every one of them.
//
//	go run ./bench                      every workload, then every traced pass
//	go run ./bench -workload scale-2500 one measured run; last stdout line is its JSON result
//	go run ./bench -workload scale-2500 -trace 1
//	go run ./bench -repeat 2            whole sets compared against the bounds
//	go run ./bench -bless               rewrite bench/reference for seed 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// declaration is BENCHMARK.json.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("bench: no BENCHMARK.json here or above")
		}
		dir = up
	}
}

func loadDeclaration(root string) (declaration, error) {
	var d declaration
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "fig-sweep":
		return &figSweep{}, nil
	case "scale-2500", "churn-2500":
		return &simPath{name: name, shards: 1}, nil
	case "shard-10k":
		return &simPath{name: name, shards: 2}, nil
	case "daemon-jobs":
		return &daemonJobs{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// measured is one metric value with its unit, as the result line
// carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single run prints as its last line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// runConfig selects one run.
type runConfig struct {
	root     string
	decl     declaration
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	bless    bool      // set up without the committed reference
	out      io.Writer // human-readable report
}

// setupRepeats is how many times a measured run sets the workload up;
// setup_s is the median.
const setupRepeats = 3

// outDir holds everything a run writes.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// setUp sets the workload up once in a fresh temp directory and returns
// how long that took.
func setUp(rc runConfig, w benchWorkload) (dir string, took float64, err error) {
	t := time.Now()
	if err := os.MkdirAll(outDir(rc.root), 0o755); err != nil {
		return "", 0, err
	}
	dir, err = os.MkdirTemp(outDir(rc.root), "tmp-")
	if err != nil {
		return "", 0, err
	}
	if err := w.setUp(&env{root: rc.root, seed: rc.seed, smoke: rc.smoke, bless: rc.bless, dir: dir}); err != nil {
		w.finish()
		os.RemoveAll(dir)
		return "", 0, err
	}
	return dir, seconds(t), nil
}

// runOne performs one run of one workload: measured (tracing off, the
// end-to-end metrics) or traced (the per-layer metrics).
func runOne(rc runConfig) (result, error) {
	w, err := newWorkload(rc.workload)
	if err != nil {
		return result{}, err
	}
	if rc.trace {
		return runTraced(rc, w)
	}
	repeats := setupRepeats
	if rc.smoke {
		repeats = 1
	}
	var setups []float64
	var dir string
	for i := 0; i < repeats; i++ {
		if i > 0 {
			w.finish()
			os.RemoveAll(dir)
		}
		var took float64
		if dir, took, err = setUp(rc, w); err != nil {
			return result{}, err
		}
		setups = append(setups, took)
	}
	defer os.RemoveAll(dir)
	defer w.finish()

	// The timed window: a closed loop, one goroutine per client, each
	// starting its next op when the last one returned, until the clock
	// runs out (smoke: one op each).
	clients := w.clients()
	lat := make([][]float64, clients)
	failures := make([][]error, clients)
	h0 := readHost()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t := time.Now()
				if err := w.op(c); err != nil {
					failures[c] = append(failures[c], err)
				}
				lat[c] = append(lat[c], seconds(t))
				if rc.smoke || seconds(t0) >= rc.seconds {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := seconds(t0)
	h1 := readHost()

	var all []float64
	failed := 0
	for c := range lat {
		all = append(all, lat[c]...)
		failed += len(failures[c])
		for _, err := range failures[c] {
			fmt.Fprintf(rc.out, "FAILED op: %v\n", err)
		}
	}
	ops := len(all)
	values := map[string]float64{
		"setup_s":         median(setups),
		"op_s_p50":        median(all),
		"ops_per_s":       float64(ops-failed) / wall,
		"alloc_mb_per_op": mb(h1.alloc-h0.alloc) / float64(ops),
	}
	res := result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]measured{}}
	fmt.Fprintf(rc.out, "%s  seed %d  tracing off  %d clients  ops %d  failed_ops %d  window %.2f s\n",
		rc.workload, rc.seed, clients, ops, failed, wall)
	for _, m := range rc.decl.EndToEnd {
		res.Metrics[m.Name] = measured{Value: values[m.Name], Unit: m.Unit}
		fmt.Fprintf(rc.out, "  %-18s %14.6g %-6s (%s is better, bound %.0f%%, %d samples)\n",
			m.Name, values[m.Name], m.Unit, m.Better, 100*m.Bound, samples(m.Name, ops, repeats))
	}
	return res, nil
}

// samples is the sample count behind an end-to-end metric.
func samples(name string, ops, setups int) int {
	if name == "setup_s" {
		return setups
	}
	return ops
}

// runTraced is the traced pass: rounds of one untraced op (for the host
// counters and the tracing overhead), the same op under spans, and the
// staged replica, until the clock runs out. Each per-layer metric is the
// median over the rounds.
func runTraced(rc runConfig, w benchWorkload) (result, error) {
	dir, _, err := setUp(rc, w)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	defer w.finish() // a no-op after the finish below; stops the workload on error paths

	tr := newTracer()
	perRound := map[string][]float64{}
	var last budget
	rounds, failed := 0, 0
	t0 := time.Now()
	for {
		l := layers{}
		h0 := readHost()
		t := time.Now()
		for c := 0; c < w.clients(); c++ { // one op per client, in turn
			if err := w.op(c); err != nil {
				return result{}, err
			}
		}
		untraced := seconds(t) / float64(w.clients())
		hostLayer(l, h0, readHost(), w.clients())
		tl, b, err := w.traceRound(tr, rounds)
		if err != nil {
			fmt.Fprintf(rc.out, "FAILED traced round: %v\n", err)
			failed++
			break
		}
		for k, v := range tl {
			l[k] = v
		}
		if own, ok := l["_untraced_op_s"]; ok {
			untraced = own // the workload timed a like-for-like untraced batch
		}
		l["trace.overhead_pct"] = 100 * (l["_traced_op_s"] - untraced) / untraced
		for k, v := range l {
			perRound[k] = append(perRound[k], v)
		}
		last = b
		rounds++
		if rc.smoke || seconds(t0) >= rc.seconds {
			break
		}
	}
	end := w.finish()

	values := map[string]float64{}
	for k, v := range perRound {
		values[k] = median(v)
	}
	for k, v := range end {
		values[k] = v
	}
	if extra := undeclared(values, rc.decl.PerLayer); len(extra) > 0 {
		return result{}, fmt.Errorf("bench: %s measured %v, which BENCHMARK.json does not declare", rc.workload, extra)
	}
	res := result{Correct: failed == 0, Attempted: rounds + failed, Failed: failed, Metrics: map[string]measured{}}
	fmt.Fprintf(rc.out, "%s  seed %d  traced pass  %d rounds  failed %d\n", rc.workload, rc.seed, rounds, failed)
	for _, m := range rc.decl.PerLayer {
		res.Metrics[m.Name] = measured{Value: values[m.Name], Unit: m.Unit}
		fmt.Fprintf(rc.out, "  %-34s %14.6g %s\n", m.Name, values[m.Name], m.Unit)
	}
	printBudget(rc.out, rc.workload, last)
	printSelfTimes(rc.out, tr.spans, rounds)
	if err := tr.write(filepath.Join(outDir(rc.root), "trace-"+rc.workload+".json")); err != nil {
		return result{}, err
	}
	return res, nil
}

// printBudget prints the last round's traced op split by layer.
func printBudget(out io.Writer, name string, b budget) {
	if b.whole == 0 {
		return
	}
	fmt.Fprintf(out, "  per-layer budget of one traced %s op (%.6g s):\n", name, b.whole)
	sum := 0.0
	for _, p := range b.parts {
		sum += p.s
		fmt.Fprintf(out, "    %-38s %12.6f s %6.1f%%\n", p.layer, p.s, 100*p.s/b.whole)
	}
	fmt.Fprintf(out, "    %-38s %12.6f s %6.1f%% of the traced op\n", "sum of parts", sum, 100*sum/b.whole)
}

// printSelfTimes prints, per span name, the self time (span − children)
// per round.
func printSelfTimes(out io.Writer, spans []span, rounds int) {
	if rounds == 0 {
		return
	}
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  self time per round by span (span − children):\n")
	for _, name := range names {
		fmt.Fprintf(out, "    %-38s %12.6f s\n", name, self[name]/float64(rounds))
	}
}

// undeclared lists the metric names a run produced that BENCHMARK.json
// does not declare (scratch keys start with "_").
func undeclared(values map[string]float64, decls []metricDecl) []string {
	known := map[string]bool{}
	for _, m := range decls {
		known[m.Name] = true
	}
	var out []string
	for k := range values {
		if !known[k] && k[0] != '_' {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
	bless    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its JSON result as the last line; empty runs them all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it; outputs are pinned for seed 1")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of one run's timed window (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0 = measured run (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	flag.IntVar(&o.repeat, "repeat", 1, "run this many full sets and fail if any two differ by more than a metric's bound")
	flag.BoolVar(&o.smoke, "smoke", false, "one op per workload at reduced size: checks the plumbing, measures nothing")
	flag.BoolVar(&o.bless, "bless", false, "rewrite bench/reference/*.json from a seed-1 run")
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	root, err := findRoot()
	if err == nil {
		err = run(root, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(root string, o options) error {
	decl, err := loadDeclaration(root)
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(decl.RunSeconds)
	}
	switch {
	case o.bless:
		return bless(root, decl)
	case o.workload == "":
		return runAll(root, decl, o.seed, o.seconds, o.repeat, o.smoke)
	}
	name := o.workload
	res, err := runOne(runConfig{root: root, decl: decl, workload: name, seed: o.seed,
		seconds: o.seconds, trace: o.trace != 0, smoke: o.smoke, out: os.Stdout})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if res.Failed > 0 {
		return fmt.Errorf("bench: %s: %d of %d ops failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// bless pins the seed-1 outputs as the committed references.
func bless(root string, decl declaration) error {
	for _, wd := range decl.Workloads {
		w, err := newWorkload(wd.Name)
		if err != nil {
			return err
		}
		dir, _, err := setUp(runConfig{root: root, seed: 1, bless: true}, w)
		if err != nil {
			return err
		}
		ref := w.reference()
		w.finish()
		os.RemoveAll(dir)
		if ref == nil {
			continue
		}
		if err := os.WriteFile(referencePath(root, wd.Name), ref, 0o644); err != nil {
			return err
		}
		fmt.Printf("blessed %s\n", referencePath(root, wd.Name))
	}
	return nil
}
