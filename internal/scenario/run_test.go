package scenario

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// Every committed package passes its gate — oracle, bands, and golden —
// at shard counts 1 and 4, and the two summaries are identical field
// for field. This is the acceptance bar the scen-smoke CI job enforces
// end to end; here it runs in-process so `go test` alone catches drift.
func TestCommittedPackagesPassGateAtShards1And4(t *testing.T) {
	if testing.Short() {
		t.Skip("full package sweep")
	}
	dirs, err := List(scenRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 8 {
		t.Fatalf("only %d committed packages, want ≥ 8", len(dirs))
	}
	for _, d := range dirs {
		p, err := LoadPackage(d)
		if err != nil {
			t.Fatal(err)
		}
		if p.Golden == nil {
			t.Fatalf("%s: unblessed package committed", d)
		}
		r1, err := Run(p, harness.SimSharded(1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Failed() {
			t.Fatalf("%s failed at 1 shard:\n%s", p.Spec.Name, r1.Explain())
		}
		r4, err := Run(p, harness.SimSharded(4), 4)
		if err != nil {
			t.Fatal(err)
		}
		if r4.Failed() {
			t.Fatalf("%s failed at 4 shards:\n%s", p.Spec.Name, r4.Explain())
		}
		if r1.Summary != r4.Summary {
			t.Fatalf("%s: summaries differ across shard counts:\n 1: %+v\n 4: %+v",
				p.Spec.Name, r1.Summary, r4.Summary)
		}
	}
}

// A deliberately perturbed golden makes the gate fail with a per-metric
// diff report naming exactly the shifted metrics — the regression
// gate's teeth, demonstrated on a real committed package.
func TestPerturbedGoldenFailsWithDiffReport(t *testing.T) {
	p, err := LoadPackage(scenRoot + "/baseline-poisson")
	if err != nil {
		t.Fatal(err)
	}
	perturbed := *p.Golden
	perturbed.Summary.Admitted += 3
	perturbed.Summary.AdmissionPct += 1.25
	p.Golden = &perturbed
	res, err := Run(p, harness.SimSharded(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("perturbed golden passed the gate")
	}
	if len(res.BandErrs) != 0 || res.Outcome.Failed() {
		t.Fatalf("failure must come from golden drift alone: bands %v, oracle %v",
			res.BandErrs, res.Outcome.Violations)
	}
	rep := res.Explain()
	if !strings.Contains(rep, "golden drift") ||
		!strings.Contains(rep, "admitted") || !strings.Contains(rep, "admission_pct") {
		t.Fatalf("report does not name the drifted metrics:\n%s", rep)
	}
	var failed []string
	for _, d := range res.Diffs {
		if !d.OK {
			failed = append(failed, d.Metric)
		}
	}
	if len(failed) != 2 {
		t.Fatalf("failed metrics %v, want exactly the two perturbed ones", failed)
	}
}

// An exported fuzz scenario, round-tripped through a package directory
// on disk, reproduces the original run exactly: same trace digest, same
// stats. This is the property that makes a package written by
// `realtor-scen fuzz` a faithful counterexample. The third input carries
// a declarative Load spec (on/off bursts with hot spots), which must
// survive the strict codec too. Every input must also come back from
// disk as the same scenario, field for field.
func TestExportedPackageReproducesTraceDigest(t *testing.T) {
	onoff := fuzzscen.Generate(4)
	onoff.Discovery = ""
	onoff.Load = &workload.Spec{Kind: "onoff", Lambda: 12, OnFor: 5, OffFor: 10, MeanSize: 1,
		Hot: []int{0, 1}, HotFraction: 0.6}
	for _, tc := range []struct {
		name string
		s    fuzzscen.Scenario
	}{
		{"generated-3", fuzzscen.Generate(3)},
		{"generated-7", fuzzscen.Generate(7)},
		{"onoff-hotspots", onoff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			dig := &Digest{}
			out, err := harness.RunCheckedOpts(harness.Sim(), s, fuzzscen.Builder(s),
				harness.RunOptions{Trace: dig})
			if err != nil {
				t.Fatal(err)
			}
			direct := NewSummary(out.Stats, dig)
			if direct.Offered == 0 {
				t.Fatal("no arrivals")
			}

			dir, err := WritePackage(t.TempDir(), Export("exported-probe", s))
			if err != nil {
				t.Fatal(err)
			}
			p, err := LoadPackage(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Spec.Effective(); got.JSON() != s.JSON() {
				t.Fatalf("package round trip changed the scenario:\n was %s\n got %s", s.JSON(), got.JSON())
			}
			res, err := Run(p, harness.Sim(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary != direct {
				t.Fatalf("exported package diverges from the direct run:\n direct %+v\n pkg    %+v",
					direct, res.Summary)
			}
		})
	}
}

// Bless writes a canonical golden that the package's own gate passes.
func TestBlessWritesGolden(t *testing.T) {
	dir, err := WritePackage(t.TempDir(), Export("bless-probe", fuzzscen.Generate(3)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadPackage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p.Golden != nil {
		t.Fatal("fresh package already has a golden")
	}
	res, err := Run(p, harness.Sim(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Bless(p, res.Summary); err != nil {
		t.Fatal(err)
	}
	re, err := LoadPackage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Golden == nil || re.Golden.Summary != res.Summary {
		t.Fatal("blessed golden did not round-trip")
	}
	r2, err := Run(re, harness.Sim(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Failed() {
		t.Fatalf("freshly blessed package fails its own gate:\n%s", r2.Explain())
	}
}

// A package directory must be named after its spec, and live runs check
// bands only (no golden diff — wall-clock runs are not digest-stable).
func TestLoadPackageNameMismatchAndLiveGatePolicy(t *testing.T) {
	root := t.TempDir()
	dir, err := WritePackage(root, Export("true-name", fuzzscen.Generate(3)))
	if err != nil {
		t.Fatal(err)
	}
	renamed := root + "/wrong-name"
	if err := os.Rename(dir, renamed); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPackage(renamed); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("err = %v, want name-mismatch error", err)
	}

	p, err := LoadPackage(scenRoot + "/baseline-poisson")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, fakeLive{harness.SimSharded(1)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diffs != nil {
		t.Fatal("golden diff applied on a non-sim backend")
	}
	if res.Failed() {
		t.Fatalf("bands-only gate failed:\n%s", res.Explain())
	}
}

// fakeLive runs on the deterministic engine but reports a live name, so
// the gate-policy test needs no wall-clock cluster.
type fakeLive struct{ harness.Backend }

func (fakeLive) Name() string { return "live" }

// arrivalClock keeps the instant of every arrival event, in emission
// order.
type arrivalClock struct{ at []float64 }

func (r *arrivalClock) Record(ev trace.Event) {
	if ev.Kind == trace.Arrival {
		r.at = append(r.at, float64(ev.At))
	}
}

// The two kernels keep one clock: every arrival the live cluster traces
// lands at the simulator's instant bit for bit, in the same order, for
// baseline-poisson and a spread of generated scenarios.
func TestLiveArrivalsMatchSimulatorBitForBit(t *testing.T) {
	p, err := LoadPackage(scenRoot + "/baseline-poisson")
	if err != nil {
		t.Fatal(err)
	}
	names, runs := []string{p.Spec.Name}, []fuzzscen.Scenario{p.Spec.Effective()}
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		names = append(names, fmt.Sprintf("seed %d", seed))
		runs = append(runs, fuzzscen.Generate(seed))
	}
	for i, s := range runs {
		name := names[i]
		var got [2]arrivalClock
		for k, be := range []harness.Backend{harness.Sim(), harness.Live()} {
			if _, err := harness.RunCheckedOpts(be, s, fuzzscen.Builder(s), harness.RunOptions{Trace: &got[k]}); err != nil {
				t.Fatalf("%s on %s: %v", name, be.Name(), err)
			}
		}
		sim, live := got[0].at, got[1].at
		if len(sim) == 0 {
			t.Fatalf("%s: no arrivals traced", name)
		}
		for i := range min(len(sim), len(live)) {
			if math.Float64bits(sim[i]) != math.Float64bits(live[i]) {
				t.Fatalf("%s: arrival %d at %v on sim, %v on live", name, i, sim[i], live[i])
			}
		}
		if len(sim) != len(live) {
			t.Fatalf("%s: %d arrivals on sim, %d on live", name, len(sim), len(live))
		}
	}
}
