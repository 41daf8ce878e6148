package experiment

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"realtor/internal/agile"
	"realtor/internal/agile/transport"
	"realtor/internal/harness"
	"realtor/internal/protocol"
	"realtor/internal/sim"
)

// Study is one entry of the study catalogue, the one table of every
// file under results/: what `realtor-sim -fig Fig` prints and what
// `realtor-sim -out DIR` writes to DIR/File. A study's parameters, its
// -quick size and its '#' header lines exist once, here.
type Study struct {
	Fig  string // realtor-sim -fig name
	File string // file under results/; "" = a view of another entry, not written
	// Live marks a study run on the live Agile cluster. Over the
	// default in-process transport the cluster runs on virtual time, so
	// its file repeats byte for byte like a simulator table; over
	// -transport udp it runs on the wall clock and its numbers move run
	// to run.
	Live bool
	// Sweep marks a λ-sweep: the study honours Options.Lambdas, and on
	// the simulator Options.Reps.
	Sweep bool
	// Run executes the study and returns the exact bytes of its file.
	Run func(Options) (string, error)
}

// Options is what a driver may ask of a study. With only Seed set, Run
// regenerates the committed results/File byte for byte (seed 1); a Live
// study reruns the committed recipe.
type Options struct {
	Seed   int64
	Quick  bool // CI-sized meshes and windows, for the studies that have them
	Shards int  // event-kernel shards, for the studies that take them (output identical at any value)

	// Shape of the λ-sweeps and the live studies; zero values keep the
	// committed tables' (3000 s × 3 replications, 800 s × 1 under Quick,
	// λ 1..10 for the figures; 300 s of arrivals per live run, 150 s
	// under Quick). Duration is simulated seconds, or scaled seconds on
	// the live cluster.
	Lambdas  []float64
	Duration sim.Time
	Reps     int

	CSV, Plot, Diff bool   // figures 5–8 presentation; Plot also charts the attack study
	Scenario        string // attack study: random|region|flap|exhaust ("" = random)
	Transport       string // live studies: chan|udp ("" = chan)
}

// ErrOption marks a Run error caused by an Options value (an unknown
// Scenario or Transport) rather than by the study itself.
var ErrOption = errors.New("invalid option")

// Catalogue returns every study in results/INDEX.md order.
func Catalogue() []Study {
	return []Study{
		{Fig: "all", File: "figures_5_8.txt", Sweep: true, Run: figuresReport("all")},
		{Fig: "5", Sweep: true, Run: figuresReport("5")},
		{Fig: "6", Sweep: true, Run: figuresReport("6")},
		{Fig: "7", Sweep: true, Run: figuresReport("7")},
		{Fig: "8", Sweep: true, Run: figuresReport("8")},
		{Fig: "scale", File: "scale.txt", Run: scaleReport},
		{Fig: "scale-large", File: "scale_large.txt", Run: scaleLargeReport},
		{Fig: "discovery", File: "discovery.txt", Run: discoveryReport},
		{Fig: "ab", File: "ablation.txt", Run: func(o Options) (string, error) {
			return "# A3 Algorithm H alpha/beta at λ=7\n" + AblationTable(RunAlphaBeta(
				[]float64{0.1, 0.25, 0.5, 1.0}, []float64{0.1, 0.25, 0.5, 0.9}, 7, o.Seed)), nil
		}},
		{Fig: "fed", File: "federation.txt", Run: func(o Options) (string, error) {
			return "# A4/F1 inter-group federation, hot 16-node block of 8x8 mesh\n" +
				FederationTable(RunFederation(8, []float64{2, 4, 6, 8, 10}, o.Seed)), nil
		}},
		{Fig: "sec", File: "security.txt", Run: func(o Options) (string, error) {
			return "# A5 security-constrained placement under compromise\n" +
				SecurityTable(RunSecuritySweep([]float64{2, 3, 4, 5, 6, 7, 8}, 0.3, o.Seed)), nil
		}},
		{Fig: "loss", File: "loss.txt", Run: func(o Options) (string, error) {
			protos := StandardProtocols(protocol.DefaultConfig())
			return "# R1 admission at λ=7 vs discovery-message loss\n" + LossTable(RunLoss(
				[]float64{0, 0.05, 0.1, 0.2, 0.4, 0.6}, 7, protos, o.Seed), protos), nil
		}},
		{Fig: "retries", File: "retries.txt", Run: func(o Options) (string, error) {
			return "# A7 one-try vs walk-the-list migration, REALTOR\n" +
				RetryTable(RunRetries([]float64{6, 8, 10}, []int{1, 2, 3, 5}, o.Seed)), nil
		}},
		{Fig: "partition", File: "partition.txt", Run: func(o Options) (string, error) {
			return "# P1 partition survivability: 5x5 mesh bisected 10/15 mid-run\n" + PartitionTable(
				RunPartition(DefaultPartitionStudy(), []float64{3, 4, 5, 6, 7, 8, 9}, o.Seed)), nil
		}},
		{Fig: "community", File: "community.txt", Run: func(o Options) (string, error) {
			return "# C1 emergent community structure vs load\n" +
				CommunityTable(RunCommunity([]float64{2, 4, 5, 6, 7, 8, 9, 10}, o.Seed)), nil
		}},
		{Fig: "attack", File: "attack.txt", Run: func(o Options) (string, error) {
			return survivabilityReport(o.Scenario, o.Seed, o.Plot)
		}},
		{Fig: "9", File: "figure_9.txt", Live: true, Sweep: true, Run: figure9Report},
		{Fig: "deadlines", File: "deadlines.txt", Live: true, Sweep: true, Run: deadlinesReport},
		{Fig: "live-attack", File: "live_attack.txt", Live: true, Run: liveAttackReport},
	}
}

// Lookup finds a study by its -fig name or by its results file's stem.
func Lookup(name string) (Study, bool) {
	for _, s := range Catalogue() {
		if s.Fig == name || (s.File != "" && strings.TrimSuffix(s.File, ".txt") == name) {
			return s, true
		}
	}
	return Study{}, false
}

// realtor is the REALTOR contender of StandardProtocols.
func realtor() Protocol { return StandardProtocols(protocol.DefaultConfig())[4] }

// lambdasOr returns the options' arrival rates, or def if they name none.
func (o Options) lambdasOr(def []float64) []float64 {
	if len(o.Lambdas) > 0 {
		return o.Lambdas
	}
	return def
}

// sweep returns the figures' λ-sweep the options describe, over λ 1..10
// unless the options name their own rates.
func (o Options) sweep() SweepConfig {
	duration, reps := sim.Time(3000), 3
	if o.Quick {
		duration, reps = 800, 1
	}
	if o.Duration > 0 {
		duration = o.Duration
	}
	if o.Reps > 0 {
		reps = o.Reps
	}
	sc := FigureSweep(o.lambdasOr(DefaultSweep().Lambdas), duration, reps)
	sc.BaseSeed = o.Seed
	return sc
}

var figureMetrics = []Metric{Admission, MessageUnits, CostPerTask, MigrationRate}

// figuresReport renders figure only ("5".."8") or all four from one
// sweep of the five standard protocols.
func figuresReport(only string) func(Options) (string, error) {
	return func(o Options) (string, error) {
		sc := o.sweep()
		sc.Engine.Shards = o.Shards
		series := RunSweep(sc, StandardProtocols(protocol.DefaultConfig()))
		var b strings.Builder
		fmt.Fprintf(&b, "# 5x5 mesh, queue=100s, task mean=5s, duration=%gs, %d replications\n",
			float64(sc.Engine.Duration), sc.Replications)
		for i, m := range figureMetrics {
			fig := strconv.Itoa(5 + i)
			if only != "all" && only != fig {
				continue
			}
			fmt.Fprintf(&b, "\n## Figure %s: %s\n", fig, m)
			switch {
			case o.CSV:
				b.WriteString(CSV(series, m))
			case o.Plot:
				b.WriteString(Chart(series, m))
			default:
				b.WriteString(Table(series, m))
			}
			if o.Diff {
				if d, err := PairedDiff(series, m, "Push-1"); err == nil {
					b.WriteString("\n" + d)
				}
			}
		}
		return b.String(), nil
	}
}

func scaleReport(o Options) (string, error) {
	return "# A2 (a) system-wide floods:\n" +
		ScaleTable(RunScaleLarge(DefaultScale(0), realtor(), o.Seed)) +
		"# A2 (b) 2-hop scoped floods:\n" +
		ScaleTable(RunScaleLarge(DefaultScale(2), realtor(), o.Seed)), nil
}

func scaleLargeReport(o Options) (string, error) {
	st := DefaultScaleLarge()
	if o.Quick {
		st.Sides = []int{10, 20}
		st.Warmup, st.Duration = 15, 150
	}
	st.Shards = o.Shards
	side := st.Sides[len(st.Sides)-1]
	return fmt.Sprintf("# A2 (c) large meshes up to %dx%d, per-node load %g tasks/s,\n"+
		"# floods scoped to a %d-hop group, duration=%gs\n%s",
		side, side, st.PerNodeLambda, st.Radius, float64(st.Duration),
		ScaleTable(RunScaleLarge(st, realtor(), o.Seed))), nil
}

// discoveryReport runs D1. The full study ends on a 30-minute flood
// cell at ~100k nodes, so Quick drops to meshes that finish in seconds.
// The study carries its own seed.
func discoveryReport(o Options) (string, error) {
	st := DefaultDiscovery()
	if o.Quick {
		st.Sides = []int{10, 16}
		st.Warmups = []sim.Time{10, 10}
		st.Durations = []sim.Time{60, 50}
		st.HotNodes = []int{4, 4}
	}
	return "# Discovery head-to-head (D1): flood-REALTOR vs Chord-style DHT vs\n" +
		"# k-level hierarchical REALTOR vs one-level federation, under none/\n" +
		"# kill/exhaust/churn. cost/task is message units per offered task;\n" +
		"# vsREALTOR is the ratio to flood-REALTOR under the same size and\n" +
		"# attack. A cost of 0.0 (vsREALTOR \"-\") means no node crossed the\n" +
		"# help threshold inside that cell's window, so the demand-driven\n" +
		"# protocols sent nothing; at the largest size only the exhaust attack\n" +
		"# builds that pressure within the short window, while the DHT pays\n" +
		"# its standing directory upkeep regardless of demand.\n" +
		DiscoveryTable(RunDiscovery(st, o.Shards)), nil
}

// liveCluster is the live studies' shared recipe: 300 scaled seconds of
// arrivals per run at 100× (150 s at 400× under Quick), a negotiation
// timeout of a quarter wall-second at that scale, over the transport the
// options name. It returns the cluster config, the arrival window and
// the transport.
func (o Options) liveCluster() (agile.Config, float64, transport.Factory, error) {
	duration, scale := 300.0, 100.0
	if o.Quick {
		duration, scale = 150, 400
	}
	if o.Duration > 0 {
		duration = float64(o.Duration)
	}
	mk, err := transport.ByName(cmp.Or(o.Transport, "chan"))
	if err != nil {
		return agile.Config{}, 0, nil, fmt.Errorf("%w: %v", ErrOption, err)
	}
	cfg := agile.DefaultConfig()
	cfg.TimeScale = scale
	cfg.NegotiationTimeout = scale / 4
	return cfg, duration, mk, nil
}

// figure9Report runs the paper's Section 6 measurement: REALTOR's
// admission on the 20-host live cluster across λ 1..8.
func figure9Report(o Options) (string, error) {
	cfg, duration, mk, err := o.liveCluster()
	if err != nil {
		return "", err
	}
	pts, err := agile.RunFigure9(cfg, o.lambdasOr([]float64{1, 2, 3, 4, 5, 6, 7, 8}), 5, duration, o.Seed, mk)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("# Figure 9: live cluster, %d hosts, queue=%gs, %gx scale\n%s",
		cfg.Hosts, cfg.QueueCapacity, cfg.TimeScale, agile.F9Table(pts)), nil
}

// deadlinesReport runs A6: EDF vs FIFO on the live runtime with
// mixed-urgency deadlines at a mean slack of 15 scaled seconds (three
// mean task sizes).
func deadlinesReport(o Options) (string, error) {
	cfg, duration, mk, err := o.liveCluster()
	if err != nil {
		return "", err
	}
	res, err := agile.RunDeadlineStudy(cfg, o.lambdasOr([]float64{1.8, 2.2, 2.6}), 5, 15, duration, o.Seed, mk)
	if err != nil {
		return "", err
	}
	return "# A6 EDF vs FIFO on the live runtime, mixed-urgency deadlines\n" + agile.DeadlineTable(res), nil
}

// liveAttackReport runs L1: hosts 0–3 of 12 down for the middle third
// of a λ=4 drive, admission binned per tenth of the run.
func liveAttackReport(o Options) (string, error) {
	cfg, duration, mk, err := o.liveCluster()
	if err != nil {
		return "", err
	}
	cfg.Hosts = 12
	res, err := harness.RunLiveAttack(cfg,
		harness.AttackStudy{Victims: []int{0, 1, 2, 3}, KillAt: duration / 3, ReviveAt: 2 * duration / 3},
		4, 5, duration, duration/10, o.Seed, mk)
	if err != nil {
		return "", err
	}
	return "# L1 live survivability: 4 of 12 hosts down for the middle third\n" +
		harness.AttackTable(res), nil
}
