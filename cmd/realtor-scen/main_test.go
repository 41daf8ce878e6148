package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"realtor/internal/fuzzscen"
	"realtor/internal/scenario"
)

const scenRoot = "../../scenarios"

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestCLIListAndRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full package sweep")
	}
	code, out, errs := runCLI(t, "list", "-dir", scenRoot)
	if code != 0 {
		t.Fatalf("list exit %d: %s", code, errs)
	}
	if !strings.Contains(out, "baseline-poisson") || !strings.Contains(out, "dht-churn") {
		t.Fatalf("list output missing packages:\n%s", out)
	}
	code, out, errs = runCLI(t, "run", "-dir", scenRoot, "-all", "-shards", "2")
	if code != 0 {
		t.Fatalf("run -all exit %d:\n%s%s", code, out, errs)
	}
	if strings.Count(out, "ok    ") < 8 {
		t.Fatalf("expected ≥ 8 gated packages:\n%s", out)
	}
}

// The gate exits 1 and prints the per-metric diff table when a golden
// disagrees — exercised end to end through a copied package with a
// perturbed golden.
func TestCLIGateFailsOnPerturbedGolden(t *testing.T) {
	root := t.TempDir()
	src, err := scenario.LoadPackage(filepath.Join(scenRoot, "baseline-poisson"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.WritePackage(root, src.Spec); err != nil {
		t.Fatal(err)
	}
	g := *src.Golden
	g.Summary.AdmissionPct -= 2 // shift the admission band's golden value
	g.Summary.Admitted -= 5
	dst := &scenario.Package{Dir: filepath.Join(root, src.Spec.Name)}
	if err := scenario.Bless(dst, g.Summary); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, "run", "-dir", root, "baseline-poisson")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	for _, want := range []string{"FAIL", "golden drift", "admission_pct", "admitted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gate output missing %q:\n%s", want, out)
		}
	}
}

// The way from a fuzz failure to a kept regression package. No
// generated seed fails the honest protocol, so the test injects the
// cause: the soft-state-expiry mutant stands in for the protocol under
// test. The sweep writes the shrunk counterexample as a package, the
// package replays through fuzz's package path to the same failing layer
// and invariant, and with the cause gone — the honest protocol that
// `run`, `fuzz` and `bless` use — it gates clean and blesses.
func TestCLIFuzzCounterexampleIsAPackage(t *testing.T) {
	root := t.TempDir()
	o, cases, code := parseFuzz([]string{"-dir", root, "-seed", "2", "-n", "1", "-shards", "2"}, io.Discard)
	if code != 0 {
		t.Fatalf("parse exit %d", code)
	}
	o.build = fuzzscen.MutantBuilder
	var out bytes.Buffer
	if code := o.sweep(cases, &out, io.Discard); code != 1 {
		t.Fatalf("sweep exit %d, want 1:\n%s", code, out.String())
	}
	for _, want := range []string{"1 scenarios (seeds 2..2): 1 failed", "fuzz-2 failed the invariant layer",
		"I3-soft-state-expiry", "wrote " + filepath.Join(root, "fuzz-2", scenario.SpecFile),
		"realtor-scen fuzz -dir=" + root + " -shards=2 fuzz-2", "realtor-scen run -dir=" + root + " -shards=2 fuzz-2",
		"realtor-scen bless -dir=" + root + " fuzz-2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}

	o, pkgs, code := parseFuzz([]string{"-dir", root, "fuzz-2"}, io.Discard)
	if code != 0 || len(pkgs) != 1 || pkgs[0].generated {
		t.Fatalf("parse of the written package: exit %d, cases %+v", code, pkgs)
	}
	o.build = fuzzscen.MutantBuilder
	out.Reset()
	if code := o.sweep(pkgs, &out, io.Discard); code != 1 ||
		!strings.Contains(out.String(), "fuzz-2 failed the invariant layer") ||
		!strings.Contains(out.String(), "I3-soft-state-expiry") || strings.Contains(out.String(), "wrote") {
		t.Fatalf("package replay exit %d, want the same layer and invariant, nothing written:\n%s", code, out.String())
	}

	if code, stdout, _ := runCLI(t, "fuzz", "-dir", root, "fuzz-2"); code != 0 || !strings.Contains(stdout, "1 package(s): 0 failed") {
		t.Fatalf("honest fuzz replay exit %d:\n%s", code, stdout)
	}
	if code, stdout, errs := runCLI(t, "bless", "-dir", root, "fuzz-2"); code != 0 {
		t.Fatalf("bless exit %d: %s%s", code, errs, stdout)
	}
	if code, stdout, _ := runCLI(t, "run", "-dir", root, "fuzz-2"); code != 0 || !strings.Contains(stdout, "ok    fuzz-2") {
		t.Fatalf("gate exit %d after bless:\n%s", code, stdout)
	}
}

// An oracle + differential sweep on the conservative-parallel kernel
// exits 0: the in-process twin of `make shard-smoke`.
func TestFuzzShardedSweepClean(t *testing.T) {
	code, out, errs := runCLI(t, "fuzz", "-n", "4", "-seed", "1", "-shards", "2")
	if code != 0 || !strings.Contains(out, "0 failed") {
		t.Fatalf("exit %d, want 0 failed\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
}

// The seeded soft-state-expiry bug is still caught on the sharded
// kernel: the oracle must not lose its teeth to the parallel path. The
// catch prints a scenario.json that decodes.
func TestFuzzMutantCaughtSharded(t *testing.T) {
	code, out, errs := runCLI(t, "fuzz", "-n", "20", "-seed", "1", "-shards", "4", "-mutant", "expiry")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if !strings.Contains(out, "oracle caught the seeded bug") || strings.Contains(out, "caught the seeded bug in 0\n") {
		t.Fatalf("mutant sweep output:\n%s", out)
	}
	if _, err := scenario.DecodeSpec([]byte(out[strings.Index(out, "{"):])); err != nil {
		t.Fatalf("printed catch is not a scenario.json: %v\n%s", err, out)
	}
}

// Packages run through the same layers as generated seeds, here on the
// sharded kernel; a missing package is an error, not a clean sweep.
func TestFuzzReplaysPackages(t *testing.T) {
	root := t.TempDir()
	if _, err := scenario.WritePackage(root, scenario.Export("gen-3", fuzzscen.Generate(3))); err != nil {
		t.Fatal(err)
	}
	code, out, errs := runCLI(t, "fuzz", "-dir", root, "-shards", "2", "gen-3")
	if code != 0 || !strings.Contains(out, "1 package(s): 0 failed") {
		t.Fatalf("exit %d, want a clean package sweep\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if code, _, _ := runCLI(t, "fuzz", "-dir", root, "nope"); code != 1 {
		t.Fatalf("missing package: exit %d, want 1", code)
	}
}

// With the full middleware stack forced on every scenario, the oracle
// (I1–I11) and the differential stay clean, on the sharded kernel too.
func TestFuzzPolicySweepClean(t *testing.T) {
	code, out, errs := runCLI(t, "fuzz", "-n", "4", "-seed", "1", "-shards", "2", "-policy", "all")
	if code != 0 || !strings.Contains(out, "0 failed") {
		t.Fatalf("exit %d, want 0 failed\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
}

// The miswired-breaker mutant is caught by the I10 audit somewhere in a
// short sweep: the in-process twin of `make policy-smoke`'s mutant leg.
func TestFuzzBreakerMutantCaught(t *testing.T) {
	code, out, errs := runCLI(t, "fuzz", "-n", "40", "-seed", "1", "-mutant", "breaker")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if !strings.Contains(out, "mutant sweep (sim, breaker)") || strings.Contains(out, "caught the seeded bug in 0\n") {
		t.Fatalf("breaker mutant sweep output:\n%s", out)
	}
	if !strings.Contains(out, "I10-breaker-legality") {
		t.Fatalf("catch not attributed to the I10 audit:\n%s", out)
	}
}

func TestCLIUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"run"},              // neither -all nor names
		{"run", "-all", "x"}, // both
		{"bless", "-backend", "live", "-all"},
		{"run", "-backend", "fpga", "-all"},
		{"run", "-shards", "0", "-all"},
		{"run", "-backend", "live", "-shards", "4", "-all"},
		// serve rejects these before it listens (else the call never returns).
		{"serve", "-addr", "127.0.0.1:0", "-no-such-flag"},
		{"serve", "-addr", "127.0.0.1:0", "stray"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

// Every malformed fuzz invocation is a usage error (exit 2) before any
// seed runs.
func TestFuzzFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"fuzz", "-n", "0"},
		{"fuzz", "-shards", "0"},
		{"fuzz", "-shards", "2", "-backend", "live"},
		{"fuzz", "-backend", "carrier-pigeon"},
		{"fuzz", "-no-such-flag"},
		{"fuzz", "-mutant", "gremlin"},
		{"fuzz", "-policy", "bogus"},
		{"fuzz", "-policy", "bucket:rate=-1"},
		{"fuzz", "-all", "x"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}
