package harness

import (
	"testing"

	"realtor/internal/fuzzscen"
	"realtor/internal/sim"
	"realtor/internal/trace"
)

// smokeSeeds matches the fuzzscen package's fast tier-1 floor: the
// sim-backend sweeps here replay the same generated scenarios the old
// fuzzscen.Run tests swept before oracle-checked execution moved into
// the harness.
const smokeSeeds = 25

func TestSimHonestRunsAreOracleClean(t *testing.T) {
	offered := uint64(0)
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		s := fuzzscen.Generate(seed)
		out, err := RunChecked(Sim(), s, fuzzscen.Builder(s))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Failed() {
			t.Errorf("seed %d: %d violations, first: %s\n%s",
				seed, len(out.Violations), out.Violations[0], s.JSON())
		}
		if out.Backend != "sim" {
			t.Fatalf("outcome backend %q", out.Backend)
		}
		offered += out.Stats.Offered
	}
	if offered == 0 {
		t.Fatal("no scenario offered any tasks; the generator is broken")
	}
}

// TestSimMutantIsCaughtAndShrinks is the mutation-testing loop in
// miniature: sweep seeds until the soft-state-expiry mutant trips the
// oracle, then shrink that scenario and require the minimised
// counterexample to (a) still fail and (b) be no more complex.
func TestSimMutantIsCaughtAndShrinks(t *testing.T) {
	fails := func(s fuzzscen.Scenario) bool {
		out, err := RunChecked(Sim(), s, fuzzscen.MutantBuilder(s))
		return err == nil && out.Failed()
	}
	var caught *fuzzscen.Scenario
	for seed := int64(1); seed <= 60; seed++ {
		s := fuzzscen.Generate(seed)
		if fails(s) {
			caught = &s
			break
		}
	}
	if caught == nil {
		t.Fatal("60 seeds never triggered the stale-candidate mutant; generator no longer exercises expiry")
	}
	shrunk := fuzzscen.Shrink(*caught, fails)
	if !fails(shrunk) {
		t.Fatalf("shrunk scenario no longer fails:\n%s", shrunk.JSON())
	}
	if len(shrunk.Events) > len(caught.Events) || shrunk.Duration > caught.Duration {
		t.Fatalf("shrinking made the scenario bigger:\n was %s\n got %s", caught.JSON(), shrunk.JSON())
	}
	out, err := RunChecked(Sim(), shrunk, fuzzscen.MutantBuilder(shrunk))
	if err != nil {
		t.Fatal(err)
	}
	sawI3 := false
	for _, v := range out.Violations {
		if v.Invariant == "I3-soft-state-expiry" {
			sawI3 = true
		}
	}
	if !sawI3 {
		t.Fatalf("mutant tripped the oracle but never via I3; violations: %v", out.Violations)
	}
}

// TestBackendContracts pins the cheap surface invariants: names, slack
// defaulting, and the simulator's exact clock.
// TestSimOverlayRunsAreOracleClean forces both overlay discovery
// protocols onto generated scenarios and requires the oracle (with I4/I5
// generalized to overlay routing; I1–I3 bind only to REALTOR state) to
// stay silent — the invariant path the fuzz loop runs when the generator
// draws Discovery "dht" or "hier".
func TestSimOverlayRunsAreOracleClean(t *testing.T) {
	for _, disc := range []string{"dht", "hier"} {
		offered := uint64(0)
		for seed := int64(1); seed <= 10; seed++ {
			s := fuzzscen.Generate(seed)
			s.Discovery = disc
			out, err := RunChecked(Sim(), s, fuzzscen.Builder(s))
			if err != nil {
				t.Fatalf("%s seed %d: %v", disc, seed, err)
			}
			if out.Failed() {
				t.Errorf("%s seed %d: %d violations, first: %s\n%s",
					disc, seed, len(out.Violations), out.Violations[0], s.JSON())
			}
			offered += out.Stats.Offered
		}
		if offered == 0 {
			t.Fatalf("%s: no scenario offered any tasks", disc)
		}
	}
}

func TestBackendContracts(t *testing.T) {
	if Sim().Name() != "sim" || Sim().Slack() != 0 {
		t.Fatalf("sim backend: name %q slack %v", Sim().Name(), Sim().Slack())
	}
	l := Live(LiveConfig{})
	if l.Name() != "live" {
		t.Fatalf("live backend name %q", l.Name())
	}
	if got, want := l.Slack(), sim.Time(0.02*50); got != want {
		t.Fatalf("default live slack %v, want %v (0.02×default scale)", got, want)
	}
	if got, want := Live(LiveConfig{TimeScale: 200}).Slack(), sim.Time(0.02*200); got != want {
		t.Fatalf("live slack at 200x %v, want %v (0.02×scale)", got, want)
	}
}

// TestRunCheckedTee verifies the funnel fans events out to extra
// consumers alongside the oracle: RunOptions.Trace is the library path
// for recording a run's unified event stream, live or simulated.
func TestRunCheckedTee(t *testing.T) {
	s := fuzzscen.Generate(3)
	buf := &trace.Buffer{}
	out, err := RunCheckedOpts(Sim(), s, fuzzscen.Builder(s), RunOptions{Trace: buf})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() {
		t.Fatalf("honest run flagged: %v", out.Violations)
	}
	arrivals := uint64(len(buf.OfKind(trace.Arrival)))
	if arrivals != out.Stats.Offered {
		t.Fatalf("teed arrivals %d, offered %d", arrivals, out.Stats.Offered)
	}
	if len(buf.OfKind(trace.MsgSend)) == 0 {
		t.Fatal("no protocol sends teed")
	}
}
