package experiment

import (
	"fmt"
	"strings"

	"realtor/internal/attack"
	"realtor/internal/metrics"
	"realtor/internal/plot"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

// The survivability study (A1 in DESIGN.md) subjects each discovery
// protocol to an attack on the paper's 5×5 mesh and reports overall and
// per-interval admission, showing the dip during the attack and the
// recovery after it — the paper's motivating use case. The attack
// occupies the middle third of a 900-second run at λ=5.
const (
	survDuration sim.Time = 900
	survAttackAt sim.Time = 300
	survRecover  sim.Time = 600
	survBinWidth sim.Time = 100
	survLambda            = 5
)

// exhaust3 is the survivability study's resource-exhaustion attack:
// three interior nodes of the 5×5 mesh stuffed with 30 bogus seconds
// of work per second each over [at, until).
func exhaust3(at, until sim.Time) attack.Scenario {
	var parts []attack.Scenario
	for _, target := range []topology.NodeID{6, 12, 18} {
		parts = append(parts, attack.Exhaust{Target: target, At: at, Until: until, Interval: 1, Chunk: 30})
	}
	return attack.Composite{Label: "exhaust-3", Parts: parts}
}

// survivabilityScenarios are the attacks -scenario selects.
func survivabilityScenarios(seed int64) map[string]attack.Scenario {
	return map[string]attack.Scenario{
		"random": attack.RandomKill{Count: 8, N: 25, At: survAttackAt, Revive: survRecover, Seed: seed},
		"region": attack.Region{Rows: 5, Cols: 5, R0: 0, R1: 2, C0: 0, C1: 2,
			At: survAttackAt, Revive: survRecover},
		"flap":    attack.Flap{Target: 12, Start: survAttackAt, DownFor: 15, UpFor: 15, Until: survRecover},
		"exhaust": exhaust3(survAttackAt, survRecover),
	}
}

// survivabilityReport runs the named attack ("" = random) against the
// five standard protocols and renders the admission timeline per
// protocol, as a table or (plot) an ASCII chart.
func survivabilityReport(name string, seed int64, asPlot bool) (string, error) {
	if name == "" {
		name = "random"
	}
	sc, ok := survivabilityScenarios(seed)[name]
	if !ok {
		return "", fmt.Errorf("%w: unknown scenario %q (want random|region|flap|exhaust)", ErrOption, name)
	}
	protos := StandardProtocols(protocol.DefaultConfig())
	overall := make([]float64, len(protos))
	timelines := make([]metrics.Timeline, len(protos))
	forEach(len(protos), 0, func(i int) {
		cfg := PaperCell(topology.Mesh(5, 5), 100, survDuration, seed)
		cfg.RerouteDeadArrivals = true
		tl := &timelines[i]
		tl.Width = float64(survBinWidth)
		cfg.OnOutcome = func(t workload.Task, _ sim.Time, ok bool) { tl.Record(float64(t.Arrive), ok) }
		e := newCell(cfg, protos[i].Build)
		sc.Apply(e)
		overall[i] = e.Run(PoissonSource(cfg, survLambda)).AdmissionProbability()
	})

	var b strings.Builder
	fmt.Fprintf(&b, "# Survivability: scenario=%s, λ=%g, attack at t=%g, recovery at t=%g\n",
		sc.Name(), float64(survLambda), float64(survAttackAt), float64(survRecover))
	if asPlot {
		var curves []plot.Series
		for i, tl := range timelines {
			var xs, ys []float64
			for _, bin := range tl.Bins {
				xs = append(xs, bin.Start+float64(survBinWidth/2))
				ys = append(ys, bin.AdmissionProbability())
			}
			curves = append(curves, plot.Series{Label: protos[i].Label, X: xs, Y: ys})
		}
		b.WriteString(plot.Render(plot.Config{
			Width: 72, Height: 16,
			Title:  "admission per interval (attack window in the middle third)",
			XLabel: "simulated time (s)", YLabel: "admission probability",
		}, curves...))
		return b.String(), nil
	}
	fmt.Fprintf(&b, "%-14s%-10s", "protocol", "overall")
	for t := sim.Time(0); t < survDuration; t += survBinWidth {
		fmt.Fprintf(&b, "  [%g,%g)", float64(t), float64(t+survBinWidth))
	}
	b.WriteByte('\n')
	for i, tl := range timelines {
		fmt.Fprintf(&b, "%-14s%-10.4f", protos[i].Label, overall[i])
		for _, bin := range tl.Bins {
			fmt.Fprintf(&b, "  %7.4f", bin.AdmissionProbability())
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
