package experiment

import (
	"fmt"
	"strings"

	"realtor/internal/attack"
	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/policy"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// PolicyRow is one (policy variant, attack scenario) cell of the
// traffic-protection study: REALTOR with a given middleware stack under
// a given attack, on the paper's 5×5 mesh.
type PolicyRow struct {
	Policy string // variant tag: "baseline", "bucket", ..., "stack"
	Attack string // scenario: "none", "exhaust", "flap", "churn"

	Admission float64 // admission probability over the window
	RejectPct float64 // offered tasks dropped (the deadline-miss proxy:
	//                      a rejected task is work whose deadline the
	//                      system declined to meet)
	CostPerTask  float64 // message units per admitted task
	MessageUnits float64 // total protocol traffic
	// RecoverAfter is the time-to-recover: seconds past the attack's end
	// until a timeline bin's admission regains 95% of the pre-attack
	// mean. 0 = the first post-attack bin already qualified; -1 = never
	// recovered inside the run.
	RecoverAfter float64
}

// PolicyStudy parameterizes RunPolicy. The attack window is the middle
// third of the run, as in the survivability study (A1).
type PolicyStudy struct {
	Lambda   float64
	Seed     int64
	Warmup   sim.Time
	Duration sim.Time
	AttackAt sim.Time
	Recover  sim.Time
	BinWidth sim.Time
	// Shards selects the event kernel (byte-identical results at any
	// value, DESIGN.md §10).
	Shards int
}

// DefaultPolicyStudy mirrors the survivability setup: 900 s runs,
// attack on [300, 600), 50 s admission bins.
func DefaultPolicyStudy(lambda float64, seed int64) PolicyStudy {
	return PolicyStudy{
		Lambda: lambda, Seed: seed,
		Warmup: 100, Duration: 900,
		AttackAt: 300, Recover: 600, BinWidth: 50,
	}
}

// PolicyVariant is one contender in the study: a display tag and the
// middleware configuration it runs under.
type PolicyVariant struct {
	Tag string
	Cfg policy.Config
}

// PolicyVariants returns the study's default contenders: bare REALTOR,
// each policy alone, and the composed default stack.
func PolicyVariants() []PolicyVariant {
	return []PolicyVariant{
		{"baseline", policy.Config{}},
		{"bucket", policy.Config{Bucket: policy.DefaultBucket()}},
		{"breaker", policy.Config{Breaker: policy.DefaultBreaker()}},
		{"retry", policy.Config{Retry: policy.DefaultRetry()}},
		{"elastic", policy.Config{Elastic: policy.DefaultElastic()}},
		{"stack", policy.DefaultStack()},
	}
}

// policyAttacks compiles the study's fault scenarios; the exhaust
// composite is the survivability study's (exhaust3).
func policyAttacks(st PolicyStudy) []struct {
	Tag string
	Sc  attack.Scenario
} {
	return []struct {
		Tag string
		Sc  attack.Scenario
	}{
		{"none", nil},
		{"exhaust", exhaust3(st.AttackAt, st.Recover)},
		{"flap", attack.Flap{Target: 12, Start: st.AttackAt, DownFor: 15, UpFor: 15, Until: st.Recover}},
		{"churn", attack.LinkChurn{Start: st.AttackAt, Until: st.Recover, Interval: 2, Down: 5, Seed: st.Seed}},
	}
}

// RunPolicy executes the head-to-head: every policy variant under every
// attack, one deterministic engine run per cell, fanned out over the
// experiment worker pool (byte-identical output at any worker count).
// Rows come back grouped by attack in variant order. With no explicit
// variants the default PolicyVariants() line-up runs; callers (the
// -policy CLI flag) may pass extra contenders.
func RunPolicy(st PolicyStudy, variants ...PolicyVariant) []PolicyRow {
	if len(variants) == 0 {
		variants = PolicyVariants()
	}
	attacks := policyAttacks(st)
	nV := len(variants)
	return collect(len(attacks)*nV, 0, func(i int) PolicyRow {
		at := attacks[i/nV]
		v := variants[i%nV]
		return runPolicyCell(st, v.Tag, v.Cfg, at.Tag, at.Sc)
	})
}

func runPolicyCell(st PolicyStudy, vTag string, pcfg policy.Config, aTag string, sc attack.Scenario) PolicyRow {
	ecfg := PaperCell(topology.Mesh(5, 5), st.Warmup, st.Duration, st.Seed)
	ecfg.BinWidth = st.BinWidth
	ecfg.Shards = st.Shards
	pc := pcfg
	pc.Seed = uint64(st.Seed)
	build := policy.New(pc, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
	e := newCell(ecfg, build)
	if sc != nil {
		sc.Apply(e)
	}
	stats := e.Run(PoissonSource(ecfg, st.Lambda))

	row := PolicyRow{
		Policy:       vTag,
		Attack:       aTag,
		Admission:    stats.AdmissionProbability(),
		CostPerTask:  stats.CostPerAdmitted(),
		MessageUnits: stats.MessageUnits,
		RecoverAfter: recoverAfter(e.Bins(), st),
	}
	if stats.Offered > 0 {
		row.RejectPct = 100 * float64(stats.Rejected) / float64(stats.Offered)
	}
	return row
}

// recoverAfter scans the admission timeline for the first post-attack
// bin regaining 95% of the pre-attack mean.
func recoverAfter(bins []engine.Bin, st PolicyStudy) float64 {
	var pre, preN float64
	for _, b := range bins {
		if b.Start >= st.Warmup && b.Start+st.BinWidth <= st.AttackAt && b.Offered > 0 {
			pre += b.AdmissionProbability()
			preN++
		}
	}
	if preN == 0 {
		return -1
	}
	target := 0.95 * pre / preN
	for _, b := range bins {
		if b.Start < st.Recover || b.Offered == 0 {
			continue
		}
		if b.AdmissionProbability() >= target {
			return float64(b.Start - st.Recover)
		}
	}
	return -1
}

// PolicyTable renders the study grouped by attack scenario.
func PolicyTable(rows []PolicyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s%-10s%-12s%-10s%-12s%-12s%-10s\n",
		"attack", "policy", "admission", "reject%", "cost/task", "msg-units", "recover-s")
	prev := ""
	for _, r := range rows {
		if r.Attack != prev && prev != "" {
			b.WriteByte('\n')
		}
		prev = r.Attack
		rec := fmt.Sprintf("%.0f", r.RecoverAfter)
		if r.RecoverAfter < 0 {
			rec = "-"
		}
		fmt.Fprintf(&b, "%-10s%-10s%-12.4f%-10.2f%-12.2f%-12.0f%-10s\n",
			r.Attack, r.Policy, r.Admission, r.RejectPct, r.CostPerTask, r.MessageUnits, rec)
	}
	return b.String()
}
