package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realtor/internal/experiment"
)

const resultsDir = "../../results"

// The committed results/ must hold exactly the files a run writes — the
// catalogue's plus the live studies' — and INDEX.md must list exactly
// those: every .txt next to it is expected, and every expected file
// exists. This is the drift the index used to suffer when attack.txt
// was produced by a sibling driver and never made it into the list.
func TestResultsIndexMatchesDirectory(t *testing.T) {
	want := map[string]bool{}
	for _, n := range resultFiles() {
		want[n] = true
	}
	entries, err := os.ReadDir(resultsDir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".txt") {
			onDisk[n] = true
		}
	}
	raw, err := os.ReadFile(filepath.Join(resultsDir, "INDEX.md"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "- "); ok {
			listed[name] = true
		}
	}
	for n := range onDisk {
		if !want[n] {
			t.Errorf("results/%s exists but no study writes it", n)
		}
	}
	for n := range want {
		if !onDisk[n] {
			t.Errorf("a study writes %s but results/%s does not exist", n, n)
		}
		if !listed[n] {
			t.Errorf("INDEX.md does not list %s", n)
		}
	}
	for n := range listed {
		if !want[n] {
			t.Errorf("INDEX.md lists %s but no study writes it", n)
		}
	}
}

// The committed tables are pinned to the code: regenerating a study
// must reproduce its results file byte for byte. Only the cheap entries
// are regenerated (about 3 s together); figures_5_8, gossip and
// scale_large take longer, scale_xl and discovery carry wall-clock
// columns, and the live files are wall-clock runs.
func TestCheapTablesMatchCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates ten result tables")
	}
	for _, name := range []string{"ablation", "loss", "retries", "community", "security",
		"federation", "partition", "scale", "policy", "attack"} {
		st, ok := experiment.Lookup(name)
		if !ok {
			t.Errorf("no study named %s in the catalogue", name)
			continue
		}
		got, err := st.Run(experiment.Options{Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := os.ReadFile(filepath.Join(resultsDir, st.File))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("results/%s is stale: regenerate with `go run ./cmd/realtor-sim -fig %s > results/%s`\ngot:\n%s\nwant:\n%s",
				st.File, st.Fig, st.File, got, want)
		}
	}
}
