package agile

import (
	"fmt"
	"strings"

	"realtor/internal/agile/sched"
	"realtor/internal/agile/transport"
	"realtor/internal/metrics"
)

// DeadlineResult compares dispatch policies on the live runtime at one
// load: the A6 ablation quantifying what the paper's EDF job scheduler
// buys over plain FIFO service.
type DeadlineResult struct {
	Lambda    float64
	Policy    sched.Policy
	Admission float64
	Miss      DeadlineStats
}

// RunDeadlineStudy drives the identical workload through an EDF cluster
// and a FIFO cluster for each λ and reports deadline miss rates. slack is
// the mean deadline slack in scaled seconds (Config.DeadlineSlack).
func RunDeadlineStudy(base Config, lambdas []float64, meanSize, slack, duration float64,
	seed int64, mkNet transport.Factory) ([]DeadlineResult, error) {
	var out []DeadlineResult
	for i, lambda := range lambdas {
		for _, policy := range []sched.Policy{sched.EDF, sched.FIFO} {
			cfg := base
			cfg.SchedPolicy = policy
			cfg.DeadlineSlack = slack
			err := runFresh(cfg, mkNet, lambda, meanSize, duration, seed+int64(i), func(c *Cluster, st metrics.RunStats) {
				out = append(out, DeadlineResult{Lambda: lambda, Policy: policy,
					Admission: st.AdmissionProbability(), Miss: c.Deadlines()})
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// DeadlineTable renders the study: miss rate plus the lateness metrics
// where (preemptive) EDF's optimality actually lives — under overload EDF
// does not necessarily miss fewer deadlines (it serves already-late jobs
// first), but it bounds how late anything gets.
func DeadlineTable(results []DeadlineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s%-8s%-12s%-12s%-12s%-12s%-14s%-12s\n",
		"lambda", "policy", "admission", "completed", "missed", "miss-rate",
		"mean-late(s)", "max-late(s)")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8.3g%-8s%-12.4f%-12d%-12d%-12.4f%-14.2f%-12.2f\n",
			r.Lambda, r.Policy, r.Admission, r.Miss.Completed, r.Miss.Missed,
			r.Miss.MissRate(), r.Miss.MeanLateness(), r.Miss.LatenessMax)
	}
	return b.String()
}
