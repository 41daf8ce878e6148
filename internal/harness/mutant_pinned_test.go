package harness

import (
	"cmp"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"slices"
	"testing"

	"realtor/internal/check"
	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
)

const pinnedMutantFile = "testdata/mutant_violations.json"

var updatePinned = flag.Bool("update-pinned", false, "rewrite "+pinnedMutantFile+" from this run")

// pinnedMutants are the runs whose violation lists the file pins.
var pinnedMutants = []struct {
	name  string
	seed  int64
	build func(fuzzscen.Scenario) engine.Builder
}{
	{"soft-state-expiry/seed-48", 48, fuzzscen.MutantBuilder},
	{"soft-state-expiry/seed-104-dht", 104, fuzzscen.MutantBuilder},
}

// The seeded mutant must die exactly as it always has: for one
// flood-REALTOR and one overlay scenario the soft-state-expiry mutant
// trips (I3), the oracle's full violation list — instant,
// invariant, node and text of every entry, in order — equals the list
// recorded before the oracle's tables were re-keyed. A cheaper oracle
// that audits later, skips an entry or words a finding differently
// fails here even when the mutant is still "caught".
func TestMutantViolationListsArePinned(t *testing.T) {
	cases := pinnedMutants
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

// The sharded kernel's workers audit in parallel, so the order in which
// the oracle meets violations depends on how they interleave; the
// violations themselves do not. For every pinned mutant run the list
// at 2 and 4 shards, sorted, equals the one-shard list sorted.
func TestMutantViolationsShardInvariant(t *testing.T) {
	sorted := func(v []check.Violation) []check.Violation {
		v = slices.Clone(v)
		slices.SortFunc(v, func(a, b check.Violation) int {
			return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Invariant, b.Invariant),
				cmp.Compare(a.Node, b.Node), cmp.Compare(a.Detail, b.Detail))
		})
		return v
	}
	for _, c := range pinnedMutants {
		s := fuzzscen.Generate(c.seed)
		one, err := RunChecked(Sim(), s, c.build(s))
		if err != nil {
			t.Fatal(err)
		}
		want := sorted(one.Violations)
		for _, shards := range []int{2, 4} {
			out, err := RunChecked(SimSharded(shards), s, c.build(s))
			if err != nil {
				t.Fatal(err)
			}
			if got := sorted(out.Violations); !reflect.DeepEqual(got, want) || out.Dropped != one.Dropped {
				t.Errorf("%s at %d shards: %d violations (%d dropped), one shard %d (%d dropped)",
					c.name, shards, len(got), out.Dropped, len(want), one.Dropped)
			}
		}
	}
}
