package experiment

import (
	"strings"
	"testing"

	"realtor/internal/protocol"
)

// quickSweep keeps runtime modest: 3 λ values, short runs, 2 replications.
func quickSweep() SweepConfig {
	return FigureSweep([]float64{2, 6, 9}, 400, 2)
}

func TestStandardProtocolsLabels(t *testing.T) {
	ps := StandardProtocols(protocol.DefaultConfig())
	want := []string{"Pull-.9", "Push-1", "Push-.9", "Pull-100", "REALTOR-100"}
	if len(ps) != len(want) {
		t.Fatalf("protocol count %d", len(ps))
	}
	for i, p := range ps {
		if p.Label != want[i] {
			t.Fatalf("label %q, want %q", p.Label, want[i])
		}
		if got := p.Build().Name(); got != want[i] {
			t.Fatalf("factory name %q, want %q", got, want[i])
		}
	}
}

func TestRunSweepShape(t *testing.T) {
	sc := quickSweep()
	protos := StandardProtocols(protocol.DefaultConfig())[:2]
	series := RunSweep(sc, protos)
	if len(series) != 2 {
		t.Fatalf("series count %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(sc.Lambdas) {
			t.Fatalf("%s: points %d", s.Label, len(s.Points))
		}
		for i, p := range s.Points {
			if p.Lambda != sc.Lambdas[i] {
				t.Fatalf("λ mismatch at %d", i)
			}
			if int(p.Admission.N()) != sc.Replications {
				t.Fatalf("replication count %d", p.Admission.N())
			}
			if len(p.Raw) != sc.Replications {
				t.Fatalf("raw count %d", len(p.Raw))
			}
			if p.Admission.Mean() <= 0 || p.Admission.Mean() > 1 {
				t.Fatalf("admission mean %v out of range", p.Admission.Mean())
			}
		}
	}
}

func TestSweepAdmissionMonotoneDecline(t *testing.T) {
	sc := quickSweep()
	series := RunSweep(sc, StandardProtocols(protocol.DefaultConfig())[4:]) // REALTOR
	pts := series[0].Points
	if pts[0].Admission.Mean() < pts[2].Admission.Mean() {
		t.Fatalf("admission rose with load: %v -> %v",
			pts[0].Admission.Mean(), pts[2].Admission.Mean())
	}
}

func TestTableAndCSV(t *testing.T) {
	sc := quickSweep()
	series := RunSweep(sc, StandardProtocols(protocol.DefaultConfig())[:2])
	tab := Table(series, Admission)
	if !strings.Contains(tab, "lambda") || !strings.Contains(tab, "Pull-.9") {
		t.Fatalf("table missing headers:\n%s", tab)
	}
	if got := len(strings.Split(strings.TrimSpace(tab), "\n")); got != 1+len(sc.Lambdas) {
		t.Fatalf("table rows %d", got)
	}
	csv := CSV(series, MessageUnits)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(sc.Lambdas) {
		t.Fatalf("csv rows %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "lambda,Pull-.9,Pull-.9_ci95") {
		t.Fatalf("csv header %q", lines[0])
	}
	for _, ln := range lines[1:] {
		if got := len(strings.Split(ln, ",")); got != 1+2*len(series) {
			t.Fatalf("csv columns %d in %q", got, ln)
		}
	}
}

func TestTableEmptySeries(t *testing.T) {
	if Table(nil, Admission) != "" {
		t.Fatal("empty table not empty")
	}
	if !strings.HasPrefix(CSV(nil, Admission), "lambda") {
		t.Fatal("empty CSV missing header")
	}
}

func TestMetricString(t *testing.T) {
	names := map[Metric]string{
		Admission:     "admission-probability",
		MessageUnits:  "number-of-messages",
		CostPerTask:   "message-cost-per-task",
		MigrationRate: "migration-rate",
		Metric(9):     "Metric(9)",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d: %q != %q", int(m), m.String(), want)
		}
	}
}

func TestRunSweepNeedsReplications(t *testing.T) {
	sc := quickSweep()
	sc.Replications = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunSweep(sc, StandardProtocols(protocol.DefaultConfig())[:1])
}

func TestRunScalePerNodeOverheadStable(t *testing.T) {
	// The paper's scalability claim: REALTOR's per-node overhead does not
	// grow with system size. Allow a generous factor (flood cost grows
	// with links, but per-node-normalized it stays bounded).
	st := DefaultScale(0)
	st.Sides = []int{3, 5, 7}
	pts := RunScaleLarge(st, realtor(), 2)
	if len(pts) != 3 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[0].Nodes != 9 || pts[2].Nodes != 49 {
		t.Fatalf("sizes %+v", pts)
	}
	small, large := pts[0].UnitsPerNodeSec, pts[2].UnitsPerNodeSec
	if large > 25*small+1 {
		t.Fatalf("per-node overhead exploded with size: %v -> %v", small, large)
	}
	tab := ScaleTable(pts)
	if !strings.Contains(tab, "units/node/sec") {
		t.Fatal("scale table malformed")
	}
}

func TestRunAlphaBeta(t *testing.T) {
	pts := RunAlphaBeta([]float64{0.25, 0.5}, []float64{0.25, 0.5}, 6, 3)
	if len(pts) != 4 {
		t.Fatalf("ablation points %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.Alpha > b.Alpha || (a.Alpha == b.Alpha && a.Beta > b.Beta) {
			t.Fatal("ablation points not sorted")
		}
	}
	for _, p := range pts {
		if p.Admission <= 0.3 {
			t.Fatalf("ablation admission %v implausible", p.Admission)
		}
	}
	tab := AblationTable(pts)
	if !strings.Contains(tab, "alpha") || len(strings.Split(strings.TrimSpace(tab), "\n")) != 5 {
		t.Fatalf("ablation table malformed:\n%s", tab)
	}
}

func TestChartRendersAllSeries(t *testing.T) {
	sc := quickSweep()
	series := RunSweep(sc, StandardProtocols(protocol.DefaultConfig())[:3])
	out := Chart(series, Admission)
	for _, want := range []string{"admission-probability", "lambda",
		"Pull-.9", "Push-1", "Push-.9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	if Chart(nil, Admission) != "" {
		t.Fatal("empty chart not empty")
	}
}

func TestPairedDiff(t *testing.T) {
	sc := quickSweep()
	series := RunSweep(sc, StandardProtocols(protocol.DefaultConfig())[:3])
	out, err := PairedDiff(series, Admission, "Push-1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Pull-.9") || !strings.Contains(out, "Push-.9") {
		t.Fatalf("diff table missing columns:\n%s", out)
	}
	if strings.Count(out, "±") != 2*len(sc.Lambdas) {
		t.Fatalf("diff cells missing:\n%s", out)
	}
	if _, err := PairedDiff(series, Admission, "nope"); err == nil {
		t.Fatal("unknown base accepted")
	}
	// Self-difference sanity: diff of a series against itself is zero.
	same := []Series{series[0], {Label: "copy", Points: series[0].Points}}
	out, err = PairedDiff(same, Admission, series[0].Label)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0.0000 ± 0.0000") {
		t.Fatalf("self-diff not zero:\n%s", out)
	}
}
