// Command realtor-sim prints or writes every table under results/. Each
// file there is one entry of the study catalogue
// (internal/experiment.Catalogue); -fig names an entry by its -fig name
// or its file's stem, and with no other flag `realtor-sim -fig X` runs
// the recipe that wrote results/X.txt, byte for byte: the simulator
// studies (Figures 5–8 and the extensions), and the three live-cluster
// studies (Figure 9, deadlines, live-attack), which run on virtual time
// over the default in-process transport (-transport udp runs them on
// the wall clock instead).
// -out DIR writes every entry's file and INDEX.md, the way results/ was
// written.
//
// Usage:
//
//	realtor-sim -fig 5                  # admission probability vs λ
//	realtor-sim -fig 6                  # total message units vs λ
//	realtor-sim -fig 7                  # message cost per admitted task
//	realtor-sim -fig 8                  # migration rate vs λ
//	realtor-sim -fig all                # figures 5-8 in one sweep
//	realtor-sim -fig 9                  # Figure 9: the live 20-host cluster
//	realtor-sim -fig 9 -transport udp   # ...over real UDP loopback sockets
//	realtor-sim -fig deadlines          # EDF vs FIFO on the live runtime
//	realtor-sim -fig live-attack        # live survivability: 4 of 12 hosts down
//	realtor-sim -fig scale              # per-node overhead vs system size
//	realtor-sim -fig scale-large        # large meshes, up to 316x316 (~100k nodes)
//	realtor-sim -fig discovery          # flood-REALTOR vs DHT vs hierarchical
//	                                    # vs federation (HIER at depth 1) at 2.5k-100k nodes
//	realtor-sim -fig discovery -quick   # CI-sized discovery sweep (seconds)
//	realtor-sim -fig ab                 # Algorithm H α/β ablation
//	realtor-sim -fig fed                # inter-group federation (future work)
//	realtor-sim -fig sec                # security-constrained placement under attack
//	realtor-sim -fig loss               # robustness to message loss
//	realtor-sim -fig retries            # one-try vs walk-the-list migration
//	realtor-sim -fig partition          # survivability across a mesh bisection
//	realtor-sim -fig attack             # survivability under a random 8-node kill
//	realtor-sim -fig attack -scenario region   # 2x2 corner of the mesh
//	realtor-sim -fig attack -scenario flap     # one flapping node
//	realtor-sim -fig attack -scenario exhaust  # resource-exhaustion attack
//	realtor-sim -fig 5 -csv             # CSV with 95% CIs instead of a table
//	realtor-sim -fig 5 -plot            # ASCII chart instead of a table
//	realtor-sim -fig 5 -duration 5000 -reps 5 -lambdas 2,4,6  # another sweep shape
//	realtor-sim -out results            # regenerate all of results/ (`make results`)
//	realtor-sim -quick -out /tmp/res    # CI-sized tables, elsewhere
//	realtor-sim -parallel 8             # 8 worker goroutines (default GOMAXPROCS)
//	realtor-sim -parallel 1             # sequential reference run (same output)
//	realtor-sim -shards 4               # conservative-parallel kernel, 4 shards
//	                                    # (same output; `go run ./bench -workload shard-10k` times it)
//	realtor-sim -kernelstats            # one diagnostic run + scheduler counters
//	realtor-sim -trace                  # one diagnostic run, its event trace pretty-printed
//	realtor-sim -trace -proto Pull-.9   # another protocol
//	realtor-sim -trace -json > run.jsonl              # JSON Lines for tooling
//	realtor-sim -trace -kinds migrate-try,migrate-ok  # filter event kinds
//	realtor-sim -cpuprofile cpu.pprof   # profile the run (go tool pprof cpu.pprof)
//	realtor-sim -memprofile mem.pprof   # heap profile written at exit
//
// A flag the chosen entry or mode does not read is a usage error, not
// silently ignored. Independent simulation cells fan out across
// -parallel workers; results are collected by index, so the output is
// byte-identical for any worker count (see EXPERIMENTS.md, "Parallel
// execution & reproducibility"). Exit status: 0 done, 1 a run failed,
// 2 usage error.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"realtor/internal/agile/transport"
	"realtor/internal/buildinfo"
	"realtor/internal/engine"
	"realtor/internal/experiment"
	"realtor/internal/metrics"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// figures are the entries that render figures 5–8, the only ones -csv
// and -diff apply to.
var figures = []string{"all", "5", "6", "7", "8"}

func run(args []string, out, errw io.Writer) int {
	var figs []string
	for _, s := range experiment.Catalogue() {
		figs = append(figs, s.Fig)
	}
	fs := flag.NewFlagSet("realtor-sim", flag.ContinueOnError)
	fs.SetOutput(errw)
	fig := fs.String("fig", "all", "which study to print: "+strings.Join(figs, "|"))
	outDir := fs.String("out", "", "write every results/ table and INDEX.md into this directory")
	duration := fs.Float64("duration", 0,
		"seconds per run of a λ-sweep, a live study or a diagnostic run (default: the study's own; 2200 for -kernelstats, 60 for -trace)")
	reps := fs.Int("reps", 0, "independent replications per point of a simulator λ-sweep (default: the study's own)")
	seed := fs.Int64("seed", 1, "base random seed")
	quick := fs.Bool("quick", false, "CI-sized meshes and windows, for the studies that have them")
	csv := fs.Bool("csv", false, "emit CSV (with 95% CIs) instead of a table (figs 5-8)")
	asPlot := fs.Bool("plot", false, "draw ASCII charts instead of tables (figs 5-8, attack)")
	diff := fs.Bool("diff", false, "also print replication-paired differences vs Push-1 (figs 5-8)")
	lambdas := fs.String("lambdas", "", "comma-separated task arrival rates of a λ-sweep (default: the study's own)")
	transportName := fs.String("transport", "", "live studies' fabric: chan|udp (default chan)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for independent runs (output is identical for any value)")
	shards := fs.Int("shards", 1,
		"event-kernel shards per run (output is identical for any value; > 1 runs the conservative-parallel kernel)")
	kernelstats := fs.Bool("kernelstats", false,
		"run one diagnostic REALTOR simulation and print scheduler kernel counters")
	traceRun := fs.Bool("trace", false,
		"run one diagnostic simulation and dump its structured event trace")
	proto := fs.String("proto", "REALTOR-100",
		"protocol to trace: Pull-.9|Push-1|Push-.9|Pull-100|REALTOR-100 (with -trace)")
	asJSON := fs.Bool("json", false, "emit the trace as JSON Lines instead of text (with -trace)")
	kinds := fs.String("kinds", "", "comma-separated event kinds to keep in the trace (with -trace; empty = all)")
	scenario := fs.String("scenario", "", "attack: random|region|flap|exhaust (with -fig attack; default random)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(out, "realtor-sim %s\n", buildinfo.Get().String())
		return 0
	}
	fail := func(code int, msg string) int {
		fmt.Fprintln(errw, "realtor-sim:", msg)
		return code
	}

	// mode names what runs: a diagnostic run, every file, or one entry.
	var study experiment.Study
	mode := "-fig " + *fig
	switch {
	case *traceRun:
		mode = "-trace"
	case *kernelstats:
		mode = "-kernelstats"
	case *outDir != "":
		mode = "-out"
	default:
		var ok bool
		if study, ok = experiment.Lookup(*fig); !ok {
			return fail(2, fmt.Sprintf("unknown figure %q (want %s)", *fig, strings.Join(figs, "|")))
		}
	}
	diagnostic := *traceRun || *kernelstats
	figure := slices.Contains(figures, study.Fig)
	// reads holds the flags only some modes or entries read, and whether
	// this one does.
	reads := map[string]bool{
		"fig":         study.Fig != "",
		"out":         !diagnostic,
		"kernelstats": !*traceRun,
		"proto":       *traceRun,
		"json":        *traceRun,
		"kinds":       *traceRun,
		"csv":         figure,
		"diff":        figure,
		"plot":        figure || study.Fig == "attack",
		"scenario":    study.Fig == "attack",
		"transport":   study.Live || mode == "-out",
		"lambdas":     study.Sweep,
		"reps":        study.Sweep && !study.Live,
		"duration":    diagnostic || study.Sweep || study.Live,
	}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if read, ok := reads[f.Name]; ok && !read {
			stray = append(stray, "-"+f.Name)
		}
	})
	switch {
	case len(stray) > 0:
		return fail(2, fmt.Sprintf("%s does not apply to %s", strings.Join(stray, " "), mode))
	case *shards < 1:
		return fail(2, "-shards must be at least 1")
	}
	if *transportName != "" { // checked before -out spends its simulator tables
		if _, err := transport.ByName(*transportName); err != nil {
			return fail(2, err.Error())
		}
	}
	ls, err := parseLambdas(*lambdas)
	if err != nil {
		return fail(2, err.Error())
	}

	experiment.SetParallelism(*parallel)
	stopProfiles, err := experiment.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(1, err.Error())
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(errw, "realtor-sim:", err)
		}
	}()

	o := experiment.Options{Seed: *seed, Quick: *quick, Shards: *shards, Transport: *transportName}
	runFor := sim.Time(*duration)
	switch {
	case *traceRun:
		err = runTrace(out, errw, *proto, *asJSON, *kinds, *seed, *shards, cmp.Or(runFor, 60))
	case *kernelstats:
		runKernelStats(out, *seed, *shards, cmp.Or(runFor, 2200))
	case mode == "-out":
		err = writeResults(*outDir, o, out)
	default:
		o.Lambdas, o.Duration, o.Reps = ls, runFor, *reps
		o.CSV, o.Plot, o.Diff = *csv, *asPlot, *diff
		o.Scenario = *scenario
		var table string
		if table, err = study.Run(o); err == nil {
			fmt.Fprint(out, table)
		}
	}
	switch {
	case errors.Is(err, experiment.ErrOption):
		return fail(2, err.Error())
	case err != nil:
		return fail(1, err.Error())
	}
	return 0
}

// parseLambdas reads a -lambdas list; "" is no list.
func parseLambdas(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad lambda %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// resultFiles lists every file a -out run writes next to INDEX.md, in
// the order it writes them: the catalogue's.
func resultFiles() []string {
	var files []string
	for _, s := range experiment.Catalogue() {
		if s.File != "" {
			files = append(files, s.File)
		}
	}
	return files
}

// index is INDEX.md.
func index() string {
	return "# Experiment outputs\n\n" +
		"Regenerate everything with: go run ./cmd/realtor-sim -out results\n\n" +
		"- " + strings.Join(resultFiles(), "\n- ") + "\n"
}

// writeResults runs every catalogue entry that has a file into dir,
// then writes INDEX.md, naming each file as it lands.
func writeResults(dir string, o experiment.Options, out io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", path)
		return nil
	}
	for _, s := range experiment.Catalogue() {
		if s.File == "" {
			continue
		}
		content, err := s.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", s.File, err)
		}
		if err := write(s.File, content); err != nil {
			return err
		}
	}
	return write("INDEX.md", index())
}

// diagnosticRun drives the one run behind -kernelstats and -trace: the
// paper's 5x5 mesh at λ=7, sharded as requested, recording into rec
// (nil = untraced).
func diagnosticRun(build engine.Builder, seed int64, shards int, warmup, duration sim.Time,
	rec trace.Recorder) (*engine.Engine, metrics.RunStats) {
	cfg := experiment.PaperCell(topology.Mesh(5, 5), warmup, duration, seed)
	cfg.Shards = shards
	cfg.Trace = rec
	e := engine.New(cfg, build)
	return e, e.Run(experiment.PoissonSource(cfg, 7))
}

// runKernelStats prints the scheduler kernel's counters for one REALTOR
// run — the observable behind the event-pool reuse claim: Reused/
// Scheduled near 1 means steady-state scheduling stopped allocating.
func runKernelStats(w io.Writer, seed int64, shards int, duration sim.Time) {
	realtor := experiment.StandardProtocols(protocol.DefaultConfig())[4].Build
	e, st := diagnosticRun(realtor, seed, shards, duration/10, duration, nil)
	ks := e.KernelStats()
	fmt.Fprintf(w, "# one REALTOR run: 5x5 mesh, lambda=7, duration=%gs, shards=%d\n",
		float64(duration), e.Shards())
	fmt.Fprintf(w, "admitted           %d/%d\n", st.Admitted, st.Offered)
	fmt.Fprintf(w, "events scheduled   %d\n", ks.Scheduled)
	fmt.Fprintf(w, "events fired       %d\n", ks.Fired)
	// One event delivers a whole hop-ring of a flood, so traffic is
	// counted on its own; the ratio is how well floods batch.
	msgs := e.MessagesDelivered()
	fmt.Fprintf(w, "messages delivered %d\n", msgs)
	fmt.Fprintf(w, "messages per event %.2f\n", float64(msgs)/float64(max(ks.Fired, 1)))
	fmt.Fprintf(w, "slots reused       %d (%.1f%% of schedules)\n",
		ks.Reused, 100*float64(ks.Reused)/float64(max(ks.Scheduled, 1)))
	fmt.Fprintf(w, "pool high-water    %d\n", ks.PoolSize)
	fmt.Fprintf(w, "still pending      %d\n", ks.Pending)
}

// runTrace dumps the structured event trace of one run of the named
// protocol — the tool to reach for when a protocol behaves oddly and
// the aggregate numbers don't say why. Events go to w (pretty-printed,
// or JSON Lines as they happen); the closing summary goes to errw.
func runTrace(w, errw io.Writer, proto string, asJSON bool, kinds string, seed int64, shards int, duration sim.Time) error {
	var build engine.Builder
	for _, p := range experiment.StandardProtocols(protocol.DefaultConfig()) {
		if p.Label == proto {
			build = p.Build
		}
	}
	if build == nil {
		return fmt.Errorf("%w: unknown protocol %q", experiment.ErrOption, proto)
	}
	buf := &trace.Buffer{}
	var rec trace.Recorder = buf
	if asJSON {
		rec = trace.NewJSONL(w)
	}
	if kinds != "" {
		allow := map[trace.Kind]bool{}
		for _, k := range strings.Split(kinds, ",") {
			allow[trace.Kind(strings.TrimSpace(k))] = true
		}
		rec = trace.Filter{Next: rec, Allow: allow}
	}
	_, st := diagnosticRun(build, seed, shards, 0, duration, rec)
	if !asJSON {
		for _, ev := range buf.Events() {
			fmt.Fprintln(w, ev)
		}
		fmt.Fprintf(errw, "# %s: %d events, admission %.4f, %d migrations\n",
			proto, buf.Total(), st.AdmissionProbability(), st.Migrated)
	}
	return nil
}
