package experiment

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"realtor/internal/policy"
	"realtor/internal/protocol"
	"realtor/internal/sim"
)

// Study is one entry of the study catalogue: what `realtor-sim -fig Fig`
// prints and what `realtor-report` writes to results/File. Both drivers
// read this one table, so a study's parameters, its -quick size and its
// '#' header lines exist once, and the two outputs cannot drift apart.
type Study struct {
	Fig  string // realtor-sim -fig name
	File string // file under results/; "" = a view of another entry, not written
	// Run executes the study and returns the exact bytes of its file.
	Run func(Options) (string, error)
}

// Options is what a driver may ask of a study. With only Seed set, Run
// regenerates the committed results/File byte for byte (seed 1).
type Options struct {
	Seed   int64
	Quick  bool // CI-sized meshes and windows, for the studies that have them
	Shards int  // event-kernel shards, for the studies that take them (output identical at any value)

	// Shape of the λ-sweeps behind figures 5–8 and gossip; zero values
	// keep the committed tables' (3000 s × 3 replications, 800 s × 1
	// under Quick; λ 1..10 for the figures, 2/5/7/9 for gossip).
	Lambdas  []float64
	Duration sim.Time
	Reps     int

	CSV, Plot, Diff bool   // figures 5–8 presentation; Plot also charts the attack study
	Policy          string // policy study: spec of an extra "custom" contender
	Scenario        string // attack study: random|region|flap|exhaust ("" = random)
}

// ErrOption marks a Run error caused by an Options value (a malformed
// Policy spec, an unknown Scenario) rather than by the study itself.
var ErrOption = errors.New("invalid option")

// Catalogue returns every simulator study in results/INDEX.md order.
func Catalogue() []Study {
	return []Study{
		{"all", "figures_5_8.txt", figuresReport("all")},
		{"5", "", figuresReport("5")},
		{"6", "", figuresReport("6")},
		{"7", "", figuresReport("7")},
		{"8", "", figuresReport("8")},
		{"scale", "scale.txt", scaleReport},
		{"scale-large", "scale_large.txt", scaleLargeReport},
		{"discovery", "discovery.txt", discoveryReport},
		{"ab", "ablation.txt", func(o Options) (string, error) {
			return "# A3 Algorithm H alpha/beta at λ=7\n" + AblationTable(RunAlphaBeta(
				[]float64{0.1, 0.25, 0.5, 1.0}, []float64{0.1, 0.25, 0.5, 0.9}, 7, o.Seed)), nil
		}},
		{"fed", "federation.txt", func(o Options) (string, error) {
			return "# A4/F1 inter-group federation, hot quadrant of 8x8 mesh\n" +
				FederationTable(RunFederation(8, []float64{2, 4, 6, 8, 10}, o.Seed)), nil
		}},
		{"sec", "security.txt", func(o Options) (string, error) {
			return "# A5 security-constrained placement under compromise\n" +
				SecurityTable(RunSecuritySweep([]float64{2, 3, 4, 5, 6, 7, 8}, 0.3, o.Seed)), nil
		}},
		{"loss", "loss.txt", func(o Options) (string, error) {
			protos := StandardProtocols(protocol.DefaultConfig())
			return "# R1 admission at λ=7 vs discovery-message loss\n" + LossTable(RunLoss(
				[]float64{0, 0.05, 0.1, 0.2, 0.4, 0.6}, 7, protos, o.Seed), protos), nil
		}},
		{"gossip", "gossip.txt", gossipReport},
		{"retries", "retries.txt", func(o Options) (string, error) {
			return "# A7 one-try vs walk-the-list migration, REALTOR\n" +
				RetryTable(RunRetries([]float64{6, 8, 10}, []int{1, 2, 3, 5}, o.Seed)), nil
		}},
		{"partition", "partition.txt", func(o Options) (string, error) {
			return "# P1 partition survivability: 5x5 mesh bisected 10/15 mid-run\n" + PartitionTable(
				RunPartition(DefaultPartitionStudy(), []float64{3, 4, 5, 6, 7, 8, 9}, o.Seed)), nil
		}},
		{"community", "community.txt", func(o Options) (string, error) {
			return "# C1 emergent community structure vs load\n" +
				CommunityTable(RunCommunity([]float64{2, 4, 5, 6, 7, 8, 9, 10}, o.Seed)), nil
		}},
		{"policy", "policy.txt", policyReport},
		{"attack", "attack.txt", func(o Options) (string, error) {
			return survivabilityReport(o.Scenario, o.Seed, o.Plot)
		}},
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

// sweep returns the λ-sweep the options describe, over lambdas unless
// the options name their own.
func (o Options) sweep(lambdas []float64) SweepConfig {
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
	if len(o.Lambdas) > 0 {
		lambdas = o.Lambdas
	}
	sc := FigureSweep(lambdas, duration, reps)
	sc.BaseSeed = o.Seed
	return sc
}

var figureMetrics = []Metric{Admission, MessageUnits, CostPerTask, MigrationRate}

// figuresReport renders figure only ("5".."8") or all four from one
// sweep of the five standard protocols.
func figuresReport(only string) func(Options) (string, error) {
	return func(o Options) (string, error) {
		sc := o.sweep(DefaultSweep().Lambdas)
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

func gossipReport(o Options) (string, error) {
	sc := o.sweep([]float64{2, 5, 7, 9})
	std := StandardProtocols(protocol.DefaultConfig())
	series := RunSweep(sc, []Protocol{std[1], std[4], // Push-1 reference, REALTOR
		GossipProtocol(protocol.DefaultConfig(), sc.Engine.Graph.N(), o.Seed)})
	var b strings.Builder
	b.WriteString("# G1 REALTOR vs push-pull anti-entropy gossip\n")
	for _, m := range figureMetrics {
		fmt.Fprintf(&b, "\n## %s\n", m)
		b.WriteString(Table(series, m))
	}
	return b.String(), nil
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

// policyReport runs the traffic-protection head-to-head (DESIGN.md §11)
// at a calm (λ=5) and a saturating (λ=8) arrival rate: every policy
// variant under every attack scenario, one table per rate. A non-empty
// Options.Policy — parsed and validated by policy.ParseSpec, so
// negative rates or unknown policy names are rejected before any
// simulation runs — adds a "custom" contender to the default line-up.
func policyReport(o Options) (string, error) {
	var variants []PolicyVariant
	if o.Policy != "" {
		cfg, err := policy.ParseSpec(o.Policy)
		if err != nil {
			return "", fmt.Errorf("%w: %v", ErrOption, err)
		}
		variants = append(PolicyVariants(), PolicyVariant{Tag: "custom", Cfg: cfg})
	}
	var b strings.Builder
	b.WriteString("# R2 traffic-protection policies: REALTOR wrapped in the\n" +
		"# internal/policy middleware (token-bucket HELP limiting, circuit\n" +
		"# breakers, retry with backoff, hysteresis elastic capacity) under\n" +
		"# exhaustion, flapping, and link-churn attacks. The attack occupies\n" +
		"# the middle third of the run; recover-s is seconds past its end\n" +
		"# until admission regains 95% of the variant's own pre-attack mean\n" +
		"# (\"-\" = not within the run).\n")
	for _, lambda := range []float64{5, 8} {
		st := DefaultPolicyStudy(lambda, o.Seed)
		if o.Quick {
			st.Warmup, st.Duration = 30, 300
			st.AttackAt, st.Recover, st.BinWidth = 100, 200, 25
		}
		st.Shards = o.Shards
		fmt.Fprintf(&b, "\n## lambda=%g\n", lambda)
		b.WriteString(PolicyTable(RunPolicy(st, variants...)))
	}
	return b.String(), nil
}
