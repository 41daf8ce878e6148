package experiment

import (
	"fmt"
	"strings"

	"realtor/internal/topology"
)

// RetryPoint is one cell of the migration-retry ablation (A7): the
// paper's simulation pins a single migration try ("one-time migration
// try to the best candidate", Section 5) while its runtime walks the
// candidate list (Section 3). This quantifies what that simplification
// costs.
type RetryPoint struct {
	Lambda      float64
	Tries       int
	Admission   float64
	MigrateFail uint64
	CtrlMsgs    uint64
}

// RunRetries sweeps MaxTries for REALTOR across loads on the experiment
// worker pool.
func RunRetries(lambdas []float64, tries []int, seed int64) []RetryPoint {
	proto := realtor()
	return collect(len(lambdas)*len(tries), 0, func(i int) RetryPoint {
		lambda, n := lambdas[i/len(tries)], tries[i%len(tries)]
		ecfg := PaperCell(topology.Mesh(5, 5), 200, 1200, seed)
		ecfg.MaxTries = n
		st := newCell(ecfg, proto.Build).Run(PoissonSource(ecfg, lambda))
		return RetryPoint{
			Lambda:      lambda,
			Tries:       n,
			Admission:   st.AdmissionProbability(),
			MigrateFail: st.MigrateFail,
			CtrlMsgs:    st.ControlMsgs,
		}
	})
}

// RetryTable renders the ablation.
func RetryTable(points []RetryPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s%-8s%-12s%-14s%-12s\n",
		"lambda", "tries", "admission", "failed-tries", "ctrl-msgs")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.3g%-8d%-12.4f%-14d%-12d\n",
			p.Lambda, p.Tries, p.Admission, p.MigrateFail, p.CtrlMsgs)
	}
	return b.String()
}
