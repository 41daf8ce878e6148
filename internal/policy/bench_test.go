package policy_test

import (
	"testing"

	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/experiment"
	"realtor/internal/policy"
	"realtor/internal/protocol"
	"realtor/internal/topology"
)

// BenchmarkPolicyOverhead prices the traffic-protection middleware on
// the paper's 5×5 cell at λ=7: "bare" is REALTOR without the policy
// layer, "off" wraps the builder with a disabled config (policy.New is
// the identity there, so ns/op must match bare within noise — the
// zero-cost claim of DESIGN.md §11), and "stack" runs the full default
// stack. No bench/ workload enables a policy, so this is the one place
// the layer is timed.
func BenchmarkPolicyOverhead(b *testing.B) {
	stack := policy.DefaultStack()
	for _, v := range []struct {
		name string
		cfg  *policy.Config
	}{{"bare", nil}, {"off", &policy.Config{}}, {"stack", &stack}} {
		b.Run(v.name, func(b *testing.B) {
			build := func() protocol.Discovery { return core.New(protocol.DefaultConfig()) }
			if v.cfg != nil {
				build = policy.New(*v.cfg, build)
			}
			b.ReportAllocs()
			admission := 0.0
			for i := 0; i < b.N; i++ {
				cfg := experiment.PaperCell(topology.Mesh(5, 5), 0, 200, int64(i+1))
				e := engine.New(cfg, build)
				admission = e.Run(experiment.PoissonSource(cfg, 7)).AdmissionProbability()
			}
			b.ReportMetric(admission, "admission")
		})
	}
}
