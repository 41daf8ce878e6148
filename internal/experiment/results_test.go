package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realtor/internal/check"
)

const resultsDir = "../../results"

// leadingRungs regenerates, for the two ladders whose top rungs are too
// tall for a unit test, the table of the rungs that fit: scale_large
// through its 10 000-node row on 2 shards, discovery's 2 500-node block
// on 4. `make results-check` covers the remaining rungs and these two
// files' '#' headers.
var leadingRungs = map[string]func() string{
	"scale_large.txt": func() string {
		st := DefaultScaleLarge()
		st.Sides = st.Sides[:6]
		st.Shards = 2
		return ScaleTable(RunScaleLarge(st, realtor(), 1))
	},
	"discovery.txt": func() string {
		st := DefaultDiscovery()
		st.Sides = st.Sides[:1]
		return DiscoveryTable(RunDiscovery(st, 4))
	},
}

// TestCheapTablesMatchCommittedResults is the catalogue's one full
// pass: every simulator study is regenerated once, at its committed
// size, and must reproduce its results file byte for byte — the
// leadingRungs entries as a byte prefix of the committed table below
// its '#' header. It runs on 8 workers and at Shards: 2, while
// `make results` writes on GOMAXPROCS workers with the classic kernel,
// and it binds the invariant oracle to every cell. So equality with the
// committed bytes proves three things at study size: worker invariance,
// shard invariance (for the studies that take Options.Shards, and the
// ladders' rungs) and a clean oracle. It takes about 40 s on 2 cores,
// most of it the figures' λ-sweep (19 s) and discovery's block (13 s).
//
// D1's latency column sums floats in OnOutcome order. The engine
// replays outcomes in canonical order at every shard count, even under
// the InlineHooks the oracle binding sets (see bindOracle), so the
// 2 500-node block at 4 shards is exact by construction.
//
// Cells whose Discovery exposes no check.ProtocolState (no pledge list,
// membership set or HELP interval to read) get only the backend-level
// invariants — I5 task and message conservation, I6 partition safety,
// I8 crossing alternation. statelessCells names the entries that have
// such cells and why; the test fails if that list stops matching the
// studies. Live entries are wall-clock runs that build no engine cell:
// they skip until the live cluster runs on a virtual clock (ROADMAP
// item 7); pinning one is dropping its skip.
func TestCheapTablesMatchCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every simulator result table")
	}
	statelessCells := map[string]string{
		"federation.txt": "hier.H embeds REALTOR without forwarding its state",
		"discovery.txt":  "hier.H (HIER, and FED at depth 1) embeds REALTOR without forwarding its state; DHT exposes check.OverlayState instead (I4/I5-overlay)",
	}
	defer SetParallelism(SetParallelism(8))
	audit := bindOracle(t)
	for _, st := range Catalogue() {
		if st.File == "" {
			continue
		}
		t.Run(st.Fig, func(t *testing.T) {
			if st.Live {
				t.Skip("wall-clock run (ROADMAP item 7)")
			}
			raw, err := os.ReadFile(filepath.Join(resultsDir, st.File))
			if err != nil {
				t.Fatal(err)
			}
			want := string(raw)
			var got string
			var fresh bool
			if lead, ok := leadingRungs[st.File]; ok {
				for strings.HasPrefix(want, "#") {
					_, want, _ = strings.Cut(want, "\n")
				}
				got = lead()
				fresh = got != "" && strings.HasPrefix(want, got)
			} else {
				got, err = st.Run(Options{Seed: 1, Shards: 2})
				fresh = got == want
			}
			cells := audit.take()
			if err != nil {
				t.Fatal(err)
			}
			if !fresh {
				t.Errorf("results/%s is stale: regenerate with `go run ./cmd/realtor-sim -fig %s > results/%s`\ngot:\n%s\nwant:\n%s",
					st.File, st.Fig, st.File, got, want)
			}
			stateless := 0
			for _, c := range cells {
				if err := c.o.Err(); err != nil {
					t.Error(err)
				}
				if _, ok := c.e.Discovery(0).(check.ProtocolState); !ok {
					stateless++
				}
			}
			if len(cells) == 0 {
				t.Error("built no cell through newCell")
			}
			if why, listed := statelessCells[st.File]; listed != (stateless > 0) {
				t.Errorf("%d of %d cells expose no protocol state, but statelessCells says %q",
					stateless, len(cells), why)
			}
		})
	}
}
