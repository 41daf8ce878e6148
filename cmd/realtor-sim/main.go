// Command realtor-sim regenerates the paper's simulation results
// (Figures 5–8) and the extension studies on the discrete-event
// simulator. -fig names an entry of the study catalogue
// (internal/experiment.Catalogue) — the table realtor-report writes
// results/ from — so `realtor-sim -fig X` prints byte for byte what
// results/X.txt holds (the λ-sweeps at the committed shape: `-fig all
// -duration 3000`, `-fig gossip -duration 3000 -lambdas 2,5,7,9`).
//
// Usage:
//
//	realtor-sim -fig 5                  # admission probability vs λ
//	realtor-sim -fig 6                  # total message units vs λ
//	realtor-sim -fig 7                  # message cost per admitted task
//	realtor-sim -fig 8                  # migration rate vs λ
//	realtor-sim -fig all                # figures 5-8 in one sweep
//	realtor-sim -fig scale              # per-node overhead vs system size
//	realtor-sim -fig scale-large        # large meshes, up to 316x316 (~100k nodes)
//	realtor-sim -fig discovery          # flood-REALTOR vs DHT vs hierarchical
//	                                    # vs federation at 2.5k-100k nodes
//	realtor-sim -fig discovery -quick   # CI-sized discovery sweep (seconds)
//	realtor-sim -fig ab                 # Algorithm H α/β ablation
//	realtor-sim -fig fed                # inter-group federation (future work)
//	realtor-sim -fig sec                # security-constrained placement under attack
//	realtor-sim -fig loss               # robustness to message loss
//	realtor-sim -fig gossip             # REALTOR vs anti-entropy gossip (modern comparator)
//	realtor-sim -fig retries            # one-try vs walk-the-list migration
//	realtor-sim -fig partition          # survivability across a mesh bisection
//	realtor-sim -fig policy             # traffic-protection middleware head-to-head
//	realtor-sim -fig policy -policy "bucket:rate=0.5,burst=2;breaker"
//	                                    # add a custom policy stack to the line-up
//	realtor-sim -fig attack             # survivability under a random 8-node kill
//	realtor-sim -fig attack -scenario region   # 2x2 corner of the mesh
//	realtor-sim -fig attack -scenario flap     # one flapping node
//	realtor-sim -fig attack -scenario exhaust  # resource-exhaustion attack
//	realtor-sim -fig 5 -csv             # CSV with 95% CIs instead of a table
//	realtor-sim -fig 5 -plot            # ASCII chart instead of a table
//	realtor-sim -duration 5000 -reps 5  # longer, tighter runs
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
// Independent simulation cells fan out across -parallel workers; results
// are collected by index, so the output is byte-identical for any worker
// count (see EXPERIMENTS.md, "Parallel execution & reproducibility").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

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
	var figs []string
	for _, s := range experiment.Catalogue() {
		figs = append(figs, s.Fig)
	}
	fig := flag.String("fig", "all", "which study to regenerate: "+strings.Join(figs, "|"))
	duration := flag.Float64("duration", 0,
		"simulated seconds per run of figs 5-8, gossip and the diagnostic runs (default 2200; 60 with -trace)")
	reps := flag.Int("reps", 3, "independent replications per point (figs 5-8, gossip)")
	seed := flag.Int64("seed", 1, "base random seed")
	quick := flag.Bool("quick", false, "CI-sized meshes and windows, for the studies that have them")
	csv := flag.Bool("csv", false, "emit CSV (with 95% CIs) instead of a table")
	asPlot := flag.Bool("plot", false, "draw ASCII charts instead of tables (figs 5-8, attack)")
	diff := flag.Bool("diff", false, "also print replication-paired differences vs Push-1 (figs 5-8)")
	lambdas := flag.String("lambdas", "1,2,3,4,5,6,7,8,9,10", "comma-separated task arrival rates (figs 5-8, gossip)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for independent runs (output is identical for any value)")
	shards := flag.Int("shards", 1,
		"event-kernel shards per run (output is identical for any value; > 1 runs the conservative-parallel kernel)")
	kernelstats := flag.Bool("kernelstats", false,
		"run one diagnostic REALTOR simulation and print scheduler kernel counters")
	traceRun := flag.Bool("trace", false,
		"run one diagnostic simulation and dump its structured event trace")
	proto := flag.String("proto", "REALTOR-100",
		"protocol to trace: Pull-.9|Push-1|Push-.9|Pull-100|REALTOR-100 (with -trace)")
	asJSON := flag.Bool("json", false, "emit the trace as JSON Lines instead of text (with -trace)")
	kinds := flag.String("kinds", "", "comma-separated event kinds to keep in the trace (empty = all)")
	policySpec := flag.String("policy", "",
		"extra policy-study contender, e.g. \"bucket:rate=0.5,burst=2;breaker:trip=3\" (with -fig policy)")
	scenario := flag.String("scenario", "", "attack: random|region|flap|exhaust (with -fig attack; default random)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print("realtor-sim")
		return
	}
	study, ok := experiment.Lookup(*fig)
	switch {
	case *shards < 1:
		usage("-shards must be at least 1")
	case !ok:
		fmt.Fprintf(os.Stderr, "realtor-sim: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	case *policySpec != "" && study.Fig != "policy":
		usage("-policy only applies with -fig policy")
	case *scenario != "" && study.Fig != "attack":
		usage("-scenario only applies with -fig attack")
	}
	experiment.SetParallelism(*parallel)
	stopProfiles, err := experiment.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "realtor-sim:", err)
		}
	}()

	runFor := sim.Time(*duration)
	if runFor == 0 {
		runFor = 2200
		if *traceRun {
			runFor = 60
		}
	}
	switch {
	case *traceRun:
		if err := runTrace(os.Stdout, *proto, *asJSON, *kinds, *seed, *shards, runFor); err != nil {
			usage(err.Error())
		}
	case *kernelstats:
		runKernelStats(os.Stdout, *seed, *shards, runFor)
	default:
		out, err := study.Run(experiment.Options{
			Seed: *seed, Quick: *quick, Shards: *shards,
			Lambdas: parseLambdas(*lambdas), Duration: runFor, Reps: *reps,
			CSV: *csv, Plot: *asPlot, Diff: *diff,
			Policy: *policySpec, Scenario: *scenario,
		})
		if errors.Is(err, experiment.ErrOption) {
			usage(err.Error())
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "realtor-sim:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "realtor-sim:", err)
	os.Exit(1)
}

func parseLambdas(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			usage(fmt.Sprintf("bad lambda %q", f))
		}
		out = append(out, v)
	}
	return out
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
// or JSON Lines as they happen); the closing summary goes to stderr.
func runTrace(w io.Writer, proto string, asJSON bool, kinds string, seed int64, shards int, duration sim.Time) error {
	var build engine.Builder
	for _, p := range experiment.StandardProtocols(protocol.DefaultConfig()) {
		if p.Label == proto {
			build = p.Build
		}
	}
	if build == nil {
		return fmt.Errorf("unknown protocol %q", proto)
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
		fmt.Fprintf(os.Stderr, "# %s: %d events, admission %.4f, %d migrations\n",
			proto, buf.Total(), st.AdmissionProbability(), st.Migrated)
	}
	return nil
}
