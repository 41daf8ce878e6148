package experiment

import (
	"strings"
	"testing"
)

// Every entry answers to its -fig name and, if it writes a file, to that
// file's stem, and no other entry answers first: `realtor-sim -fig X`
// prints results/X.txt for every X.
func TestCatalogueLookupByFigAndStem(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Catalogue() {
		if seen[s.Fig] {
			t.Errorf("-fig %q names two entries", s.Fig)
		}
		seen[s.Fig] = true
		names := []string{s.Fig}
		if s.File != "" {
			names = append(names, strings.TrimSuffix(s.File, ".txt"))
		}
		for _, n := range names {
			if got, ok := Lookup(n); !ok || got.Fig != s.Fig {
				t.Errorf("Lookup(%q) = %q, %v; want entry %q", n, got.Fig, ok, s.Fig)
			}
		}
	}
}
