package experiment

import (
	"fmt"
	"strings"

	"realtor/internal/attack"
	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/resource"
	"realtor/internal/rng"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

// SecurityResult is the A5 extension: admission of security-constrained
// versus unconstrained tasks while part of the system is compromised.
type SecurityResult struct {
	Lambda           float64
	SecureFraction   float64 // fraction of tasks requiring security ≥ 2
	OverallAdmission float64
	SecureAdmission  float64 // constrained tasks
	RelaxedAdmission float64 // unconstrained tasks
}

// RunSecurity runs the information-assurance scenario: on the 5×5 mesh,
// 60 % of nodes are high-security (level 2), the rest level 1. A fraction
// of tasks require level 2. At t=300 an attacker compromises 5 of the
// high-security nodes (downgrade to level 0) until t=600. Constrained
// tasks arriving at compromised or low-security hosts must migrate to a
// compliant host or be rejected — they may never run on a compromised
// one (the engine's attribute check; internal/engine tests it).
func RunSecurity(lambda, secureFraction float64, seed int64) SecurityResult {
	graph := topology.Mesh(5, 5)
	attrs := make([]resource.Attrs, graph.N())
	for i := range attrs {
		attrs[i] = resource.Attrs{Bandwidth: 100, Memory: 100, Security: 1}
		if i%5 < 3 { // 15 of 25 nodes are high security
			attrs[i].Security = 2
		}
	}
	compromised := []topology.NodeID{0, 1, 2, 10, 11} // high-security victims

	var offered, admitted [2]uint64 // index 0 = relaxed, 1 = secure
	res := SecurityResult{Lambda: lambda, SecureFraction: secureFraction}

	ecfg := PaperCell(graph, 100, 900, seed)
	ecfg.Attrs = attrs
	ecfg.OnOutcome = func(t workload.Task, ok bool) {
		cls := 0
		if t.Require.Security >= 2 {
			cls = 1
		}
		offered[cls]++
		if ok {
			admitted[cls]++
		}
	}
	e := newCell(ecfg, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
	attack.Downgrade{Targets: compromised, At: 300, Restore: 600, Security: 0}.Apply(e)

	src := PoissonSource(ecfg, lambda)
	mark := rng.New(seed).Derive("secure-mark")
	classed := workload.NewMap(src, func(t workload.Task) workload.Task {
		if mark.Bernoulli(secureFraction) {
			t.Require = resource.Attrs{Security: 2}
		}
		return t
	})
	st := e.Run(classed)

	res.OverallAdmission = st.AdmissionProbability()
	if offered[1] > 0 {
		res.SecureAdmission = float64(admitted[1]) / float64(offered[1])
	}
	if offered[0] > 0 {
		res.RelaxedAdmission = float64(admitted[0]) / float64(offered[0])
	}
	return res
}

// RunSecuritySweep runs the A5 scenario across loads on the experiment
// worker pool (each λ is an independent engine run).
func RunSecuritySweep(lambdas []float64, secureFraction float64, seed int64) []SecurityResult {
	return collect(len(lambdas), 0, func(i int) SecurityResult {
		return RunSecurity(lambdas[i], secureFraction, seed)
	})
}

// SecurityTable renders one or more security runs.
func SecurityTable(results []SecurityResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s%-10s%-12s%-14s%-14s\n",
		"lambda", "secure%", "overall", "secure-adm", "relaxed-adm")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8.3g%-10.0f%-12.4f%-14.4f%-14.4f\n",
			r.Lambda, 100*r.SecureFraction, r.OverallAdmission,
			r.SecureAdmission, r.RelaxedAdmission)
	}
	return b.String()
}
