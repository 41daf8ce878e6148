package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realtor/internal/experiment"
	"realtor/internal/protocol"
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

// leadingRungs regenerates, for the two ladders whose top rungs are too
// tall for a unit test, the table of the rungs that fit: scale_large
// through its 10 000-node row, discovery's 2 500-node block. Both run
// on the sharded kernel while `make results` writes with the classic
// one, so equality with the committed bytes is also the cross-shard
// proof at study scale. `make results-check` covers the remaining rungs
// and these two files' '#' headers.
var leadingRungs = map[string]func() string{
	"scale_large.txt": func() string {
		st := experiment.DefaultScaleLarge()
		st.Sides = st.Sides[:6]
		st.Shards = 2
		realtor := experiment.StandardProtocols(protocol.DefaultConfig())[4]
		return experiment.ScaleTable(experiment.RunScaleLarge(st, realtor, 1))
	},
	"discovery.txt": func() string {
		st := experiment.DefaultDiscovery()
		st.Sides = st.Sides[:1]
		return experiment.DiscoveryTable(experiment.RunDiscovery(st, 4))
	},
}

// The committed tables are pinned to the code: regenerating a study
// must reproduce its results file byte for byte. Every catalogue file is
// regenerated in full except the leadingRungs entries, whose output
// must be a byte prefix of the committed table below its '#' header.
// The live files are wall-clock runs and stay out. Measured at PR 22:
// 22 s on 2 cores, nearly all of it the two λ-sweeps (figures_5_8,
// gossip) and discovery's block.
func TestCheapTablesMatchCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every simulator result table")
	}
	for _, st := range experiment.Catalogue() {
		if st.File == "" {
			continue
		}
		t.Run(st.Fig, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(resultsDir, st.File))
			if err != nil {
				t.Fatal(err)
			}
			want := string(raw)
			stale := func(got string) {
				t.Errorf("results/%s is stale: regenerate with `go run ./cmd/realtor-sim -fig %s > results/%s`\ngot:\n%s\nwant:\n%s",
					st.File, st.Fig, st.File, got, want)
			}
			if lead, ok := leadingRungs[st.File]; ok {
				for strings.HasPrefix(want, "#") {
					_, want, _ = strings.Cut(want, "\n")
				}
				if got := lead(); got == "" || !strings.HasPrefix(want, got) {
					stale(got)
				}
				return
			}
			got, err := st.Run(experiment.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				stale(got)
			}
		})
	}
}
