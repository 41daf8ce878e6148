package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const resultsDir = "../../results"

// The committed results/ must hold exactly the files a -out run writes —
// the catalogue's — and INDEX.md must be what it writes: every .txt next to it is expected, every expected file exists,
// and the index lists them byte for byte in the generator's order. This
// is the drift the index used to suffer when attack.txt was produced by
// a sibling driver and never made it into the list.
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
	for n := range onDisk {
		if !want[n] {
			t.Errorf("results/%s exists but no study writes it", n)
		}
	}
	for n := range want {
		if !onDisk[n] {
			t.Errorf("a study writes %s but results/%s does not exist", n, n)
		}
	}
	raw, err := os.ReadFile(filepath.Join(resultsDir, "INDEX.md"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != index() {
		t.Errorf("results/INDEX.md is not what realtor-sim -out writes:\ngot:\n%s\nwant:\n%s", raw, index())
	}
}
