package engine

import (
	"testing"

	"realtor/internal/metrics"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// TestRetryAdmissionCountsInArrivalBin: a task admitted on a retry
// counts in the bin of its arrival, not of the retry that placed it.
// Per-bin Offered equals the arrivals the trace shows in that bin, and no
// bin admits more than it was offered.
func TestRetryAdmissionCountsInArrivalBin(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Warmup, cfg.Duration, cfg.Seed, cfg.MaxTries = 0, 600, 3, 3
	tl := metrics.Timeline{Width: 1}
	crossed := 0 // outcomes decided in a later bin than their arrival
	cfg.OnOutcome = func(t workload.Task, at sim.Time, ok bool) {
		tl.Record(float64(t.Arrive), ok)
		if ok && int(at) != int(t.Arrive) {
			crossed++
		}
	}
	var buf trace.Buffer
	cfg.Trace = trace.Filter{Next: &buf, Allow: map[trace.Kind]bool{trace.Arrival: true}}
	New(cfg, builders()["realtor"]).Run(workload.NewPoisson(9, 5, 25, rng.New(3)))

	if len(tl.Bins) != 600 || crossed == 0 {
		t.Fatalf("%d bins, %d admissions decided past their arrival bin: scenario is vacuous", len(tl.Bins), crossed)
	}
	arrivals := make([]uint64, len(tl.Bins))
	for _, ev := range buf.Events() {
		arrivals[int(ev.At)]++
	}
	for i, b := range tl.Bins {
		if b.Offered != arrivals[i] {
			t.Fatalf("bin %d offered %d, but %d tasks arrived in it", i, b.Offered, arrivals[i])
		}
		if b.Admitted > b.Offered {
			t.Fatalf("bin %d admitted %d > offered %d", i, b.Admitted, b.Offered)
		}
	}
}

// TestOutcomeTimelineConservesStatsAcrossShards: with no warmup every
// outcome is measured, so the timeline fed from OnOutcome sums to the
// run's Offered and Admitted — at 1 and 2 shards, under dead-node
// rerouting, a kill with revive, and retries.
func TestOutcomeTimelineConservesStatsAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := testEngineConfig()
		cfg.Warmup, cfg.Shards, cfg.MaxTries = 0, shards, 2
		cfg.RerouteDeadArrivals = true
		tl := metrics.Timeline{Width: 25}
		cfg.OnOutcome = func(t workload.Task, _ sim.Time, ok bool) { tl.Record(float64(t.Arrive), ok) }
		e := New(cfg, builders()["realtor"])
		e.Scheduler().At(150, func(sim.Time) { e.Kill(12); e.Kill(13) })
		e.Scheduler().At(300, func(sim.Time) { e.Revive(12) })
		st := e.Run(workload.NewPoisson(9, 5, 25, rng.New(4)))
		var offered, admitted uint64
		for _, b := range tl.Bins {
			offered += b.Offered
			admitted += b.Admitted
		}
		if offered != st.Offered || admitted != st.Admitted {
			t.Fatalf("shards=%d: timeline sums offered %d admitted %d, stats %d/%d",
				shards, offered, admitted, st.Offered, st.Admitted)
		}
		if st.Rejected == 0 || st.Admitted == 0 {
			t.Fatalf("shards=%d: degenerate run %+v", shards, st)
		}
	}
}
