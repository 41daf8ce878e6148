package harness

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"realtor/internal/check"
	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
)

const pinnedMutantFile = "testdata/mutant_violations.json"

var updatePinned = flag.Bool("update-pinned", false, "rewrite "+pinnedMutantFile+" from this run")

// The seeded mutants must die exactly as they always have: for one
// flood-REALTOR and one overlay scenario per invariant family the
// mutants trip (I3 for the soft-state-expiry mutant, I10 for the
// miswired breaker), the oracle's full violation list — instant,
// invariant, node and text of every entry, in order — equals the list
// recorded before the oracle's tables were re-keyed. A cheaper oracle
// that audits later, skips an entry or words a finding differently
// fails here even when the mutant is still "caught".
func TestMutantViolationListsArePinned(t *testing.T) {
	cases := []struct {
		name  string
		seed  int64
		build func(fuzzscen.Scenario) engine.Builder
	}{
		{"soft-state-expiry/seed-48", 48, fuzzscen.MutantBuilder},
		{"soft-state-expiry/seed-104-dht", 104, fuzzscen.MutantBuilder},
		{"miswired-breaker/seed-11", 11, fuzzscen.BrokenBreakerBuilder},
		{"miswired-breaker/seed-43-dht", 43, fuzzscen.BrokenBreakerBuilder},
	}
	got := map[string][]check.Violation{}
	for _, c := range cases {
		s := fuzzscen.Generate(c.seed)
		out, err := RunChecked(Sim(), s, c.build(s))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Violations) == 0 || out.Dropped != 0 {
			t.Fatalf("%s: %d violations, %d dropped — not a usable pin", c.name, len(out.Violations), out.Dropped)
		}
		got[c.name] = out.Violations
	}
	if *updatePinned {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedMutantFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pinnedMutantFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]check.Violation
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("%s pins %d runs, the test makes %d", pinnedMutantFile, len(want), len(cases))
	}
	for _, c := range cases {
		g, w := got[c.name], want[c.name]
		if reflect.DeepEqual(g, w) {
			continue
		}
		t.Errorf("%s: %d violations, pinned %d", c.name, len(g), len(w))
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Errorf("  first difference at #%d:\n   got  %s\n   want %s", i, g[i], w[i])
				break
			}
		}
	}
}
