package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"realtor/internal/agile"
	"realtor/internal/agile/transport"
	"realtor/internal/fuzzscen"
	"realtor/internal/metrics"
	"realtor/internal/rng"
	"realtor/internal/workload"
)

// AttackStudy is the live-runtime counterpart of the simulator's A1
// survivability experiment: hosts are killed mid-run on the real
// goroutine cluster and the admission timeline shows the dip and the
// recovery. It compiles to the same kill-event vocabulary the fuzzer's
// scenarios use, executed by the harness's live fault scheduler —
// there is exactly one fault-schedule implementation for the live
// runtime.
type AttackStudy struct {
	Victims  []int   // host IDs to take down
	KillAt   float64 // scaled seconds into the drive
	ReviveAt float64 // scaled seconds; ≤ KillAt means never
}

// Events compiles the study into the shared fault vocabulary.
func (s AttackStudy) Events() []fuzzscen.Event {
	evs := make([]fuzzscen.Event, 0, len(s.Victims))
	for _, v := range s.Victims {
		evs = append(evs, fuzzscen.Event{Op: "kill", At: s.KillAt, Until: s.ReviveAt, Node: v})
	}
	return evs
}

// AttackResult is one live attack run.
type AttackResult struct {
	Stats    metrics.RunStats
	Timeline metrics.Timeline
	Study    AttackStudy
}

// RunLiveAttack drives a Poisson load while the study's kill/revive
// schedule executes as timed commands on the cluster, and returns the overall stats
// plus the admission timeline: every component's fate, from the
// cluster's OnOutcome hook, in binWidth-wide bins of its submission
// instant. cfg.OnOutcome is replaced.
func RunLiveAttack(cfg agile.Config, study AttackStudy, lambda, meanSize, duration, binWidth float64,
	seed int64, mkNet transport.Factory) (AttackResult, error) {
	for _, v := range study.Victims {
		if v < 0 || v >= cfg.Hosts {
			return AttackResult{}, fmt.Errorf("harness: victim %d outside [0,%d)", v, cfg.Hosts)
		}
	}
	inner, err := mkNet(cfg.Hosts)
	if err != nil {
		return AttackResult{}, err
	}
	fn := transport.NewFault(inner, seed)
	var mu sync.Mutex // hosts report outcomes concurrently on the wall-clock driver
	tl := metrics.Timeline{Width: binWidth}
	cfg.OnOutcome = func(arrive float64, admitted bool) {
		mu.Lock()
		tl.Record(arrive, admitted)
		mu.Unlock()
	}
	c, err := agile.NewCluster(cfg, fn)
	if err != nil {
		fn.Close()
		return AttackResult{}, err
	}

	liveFaults{c: c, fn: fn}.schedule(study.Events())
	st, _ := c.Drive(context.Background(), workload.NewPoisson(lambda, meanSize, cfg.Hosts, rng.New(seed)), duration)
	c.Stop() // no outcome fires after the hosts stop
	return AttackResult{Stats: st, Timeline: tl, Study: study}, nil
}

// AttackTable renders a live attack timeline.
func AttackTable(r AttackResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "overall admission: %.4f  (offered %d, migrated %d)\n",
		r.Stats.AdmissionProbability(), r.Stats.Offered, r.Stats.Migrated)
	fmt.Fprintf(&b, "victims %v down at t=%g", r.Study.Victims, r.Study.KillAt)
	if r.Study.ReviveAt > r.Study.KillAt {
		fmt.Fprintf(&b, ", revived at t=%g", r.Study.ReviveAt)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-14s%-10s%-10s%-10s\n", "interval", "offered", "admitted", "admission")
	for _, bin := range r.Timeline.Bins {
		fmt.Fprintf(&b, "[%4.0f,%4.0f)  %-10d%-10d%-10.4f\n",
			bin.Start, bin.Start+r.Timeline.Width, bin.Offered, bin.Admitted,
			bin.AdmissionProbability())
	}
	return b.String()
}
