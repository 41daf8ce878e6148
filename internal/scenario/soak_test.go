package scenario

import (
	"bytes"
	"testing"

	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
)

// A live run under seeded loss, link cuts, churn and a kill/revive, on
// the deterministic driver, is clean under the exact oracle and repeats:
// two runs give the same canonical summary, trace digest included.
func TestLiveLossAndCutSoak(t *testing.T) {
	s := fuzzscen.Generate(1)
	s.Topology, s.Rows, s.Cols, s.N = "mesh", 4, 4, 0
	s.Discovery, s.Load, s.Capacities = "", nil, nil
	s.Duration, s.QueueCapacity, s.Lambda, s.MeanSize = 120, 10, 16, 1
	s.LossProb = 0.05
	s.Events = []fuzzscen.Event{
		{Op: "cut", At: 20, Until: 60, A: 0, B: 1},
		{Op: "cut", At: 30, Until: 90, A: 5, B: 6},
		{Op: "kill", At: 40, Until: 80, Node: 10},
		{Op: "churn", At: 50, Until: 110, Interval: 5, Down: 3, Seed: 7},
	}
	pkg := &Package{Spec: Export("live-soak", s)}
	var first []byte
	for run := 0; run < 2; run++ {
		res, err := Run(pkg, harness.Live(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome.Failed() {
			t.Fatalf("run %d: %d violations (+%d dropped), first: %s",
				run, len(res.Outcome.Violations), res.Outcome.Dropped, res.Outcome.Violations[0])
		}
		sum := res.Summary
		if sum.Offered == 0 || sum.Migrated == 0 || sum.Rejected == 0 {
			t.Fatalf("run %d exercised too little: %+v", run, sum)
		}
		enc := EncodeSummary(sum)
		if first == nil {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("two runs differ:\n%s%s", first, enc)
		}
	}
}
