//go:build goexperiment.synctest

// The module's go line (1.22) keeps asynchronous timer channels, which
// synctest.Run refuses; this test binary alone opts out.
//go:debug asynctimerchan=0

package experiment

import (
	"os"
	"path/filepath"
	"testing"
	"testing/synctest"
)

// TestLiveTablesMatchCommittedResults pins the three live-cluster
// tables on virtual time: each Live catalogue entry runs inside a
// synctest bubble, where time.Now, time.AfterFunc and time.Sleep read a
// synthetic clock that advances only when every goroutine of the bubble
// is durably blocked, so actor processing costs no scaled time, as in
// the simulator. The committed figure_9.txt, deadlines.txt and
// live_attack.txt are these virtual-time tables. Run it with
// `make live-pin` (GOEXPERIMENT=synctest, Go 1.24 or later).
func TestLiveTablesMatchCommittedResults(t *testing.T) {
	for _, st := range Catalogue() {
		if !st.Live {
			continue
		}
		t.Run(st.Fig, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(resultsDir, st.File))
			if err != nil {
				t.Fatal(err)
			}
			// The result leaves the bubble on a channel: the race
			// detector sees no ordering between the bubble's last
			// write and synctest.Run returning.
			type result struct {
				out string
				err error
			}
			done := make(chan result, 1)
			synctest.Run(func() {
				out, err := st.Run(Options{Seed: 1})
				done <- result{out, err}
			})
			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			got := r.out
			if got != string(raw) {
				t.Errorf("results/%s differs from its virtual-time run (`make live-pin`)\ngot:\n%s\nwant:\n%s",
					st.File, got, raw)
			}
		})
	}
}
