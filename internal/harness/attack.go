package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"realtor/internal/agile"
	"realtor/internal/agile/transport"
	"realtor/internal/attack"
	"realtor/internal/metrics"
	"realtor/internal/rng"
	"realtor/internal/workload"
)

// AttackResult is one live attack run: the live-runtime counterpart of
// the simulator's A1 survivability experiment, hosts killed mid-run on
// the cluster, with the admission timeline showing the dip and the
// recovery.
type AttackResult struct {
	Stats    metrics.RunStats
	Timeline metrics.Timeline
	Attack   attack.Kill
}

// RunLiveAttack drives a Poisson load while the kill (its Targets are
// host IDs, its instants scaled seconds into the drive) executes as
// timed commands on the cluster, and returns the overall stats plus the
// admission timeline: every component's fate, from the cluster's
// OnOutcome hook, in binWidth-wide bins of its submission instant.
// cfg.OnOutcome is replaced.
func RunLiveAttack(cfg agile.Config, kill attack.Kill, lambda, meanSize, duration, binWidth float64,
	seed int64, mkNet transport.Factory) (AttackResult, error) {
	for _, v := range kill.Targets {
		if v < 0 || int(v) >= cfg.Hosts {
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

	kill.Apply(newLiveTarget(c, fn, 0, nil))
	st, _ := c.Drive(context.Background(), workload.NewPoisson(lambda, meanSize, cfg.Hosts, rng.New(seed)), duration)
	c.Stop() // no outcome fires after the hosts stop
	return AttackResult{Stats: st, Timeline: tl, Attack: kill}, nil
}

// AttackTable renders a live attack timeline.
func AttackTable(r AttackResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "overall admission: %.4f  (offered %d, migrated %d)\n",
		r.Stats.AdmissionProbability(), r.Stats.Offered, r.Stats.Migrated)
	fmt.Fprintf(&b, "victims %v down at t=%g", r.Attack.Targets, float64(r.Attack.At))
	if r.Attack.Revive > r.Attack.At {
		fmt.Fprintf(&b, ", revived at t=%g", float64(r.Attack.Revive))
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
