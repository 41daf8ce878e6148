package harness

import (
	"fmt"
	"math"
	"strings"

	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
)

// Tolerance bounds how far the live cluster may drift from the
// simulator on one scenario before parity fails. The two runtimes share
// the protocol implementation and the exact arrival sequence but differ
// in message latency (the live fabric delivers at the instant of sending,
// the simulator after HopDelay per hop), topology (the live fabric is
// fully connected) and loss semantics, so aggregate metrics agree only
// within bands.
type Tolerance struct {
	// Admission is the maximum absolute difference in admission
	// probability (Admitted/Offered).
	Admission float64

	// MsgFactor is the maximum multiplicative ratio between the two
	// backends' HELP (and PLEDGE) counts, once both exceed MsgSlack.
	MsgFactor float64

	// MsgSlack is the absolute count difference always tolerated —
	// sparse scenarios emit a handful of messages, where ratios are
	// meaningless.
	MsgSlack uint64
}

// DefaultTolerance returns the documented parity bands (EXPERIMENTS.md
// §V2): admission within 0.15 absolute, message counts within 3× once
// past 30 messages.
func DefaultTolerance() Tolerance {
	return Tolerance{Admission: 0.15, MsgFactor: 3, MsgSlack: 30}
}

// ParityCheck is one compared metric.
type ParityCheck struct {
	Name   string
	Sim    float64
	Live   float64
	OK     bool
	Detail string
}

// ParityReport is the result of replaying one scenario on both backends.
type ParityReport struct {
	Scenario fuzzscen.Scenario
	Sim      Outcome
	Live     Outcome
	Checks   []ParityCheck
}

// OK reports whether every check passed and both oracles were clean.
func (r ParityReport) OK() bool {
	if r.Sim.Failed() || r.Live.Failed() {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Table renders the report for humans.
func (r ParityReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s%-14s%-14s%-8s%s\n", "metric", "sim", "live", "ok", "detail")
	for _, c := range r.Checks {
		ok := "PASS"
		if !c.OK {
			ok = "FAIL"
		}
		fmt.Fprintf(&b, "%-22s%-14.6g%-14.6g%-8s%s\n", c.Name, c.Sim, c.Live, ok, c.Detail)
	}
	fmt.Fprintf(&b, "oracle: sim %d violation(s), live %d violation(s)\n",
		len(r.Sim.Violations)+r.Sim.Dropped, len(r.Live.Violations)+r.Live.Dropped)
	return b.String()
}

// Parity replays one scenario on the simulator and on the given live
// backend under the invariant oracle, then compares end-state aggregate
// metrics within the tolerance bands — the repo's answer to the paper
// validating REALTOR both by simulation (Section 5) and by live
// measurement (Section 6) and finding the same qualitative behaviour.
func Parity(s fuzzscen.Scenario, live Backend, build engine.Builder, tol Tolerance) (ParityReport, error) {
	simOut, err := RunChecked(Sim(), s, build)
	if err != nil {
		return ParityReport{}, fmt.Errorf("harness: sim leg: %w", err)
	}
	liveOut, err := RunChecked(live, s, build)
	if err != nil {
		return ParityReport{}, fmt.Errorf("harness: live leg: %w", err)
	}
	r := ParityReport{Scenario: s, Sim: simOut, Live: liveOut}

	// Offered is exact: both backends consume the identical workload
	// source with the identical Arrive ≥ Duration cutoff.
	so, lo := simOut.Stats.Offered, liveOut.Stats.Offered
	r.Checks = append(r.Checks, ParityCheck{
		Name: "offered", Sim: float64(so), Live: float64(lo),
		OK:     so == lo,
		Detail: "exact (same workload source, same cutoff)",
	})

	sa, la := simOut.Stats.AdmissionProbability(), liveOut.Stats.AdmissionProbability()
	r.Checks = append(r.Checks, ParityCheck{
		Name: "admission", Sim: sa, Live: la,
		OK:     math.Abs(sa-la) <= tol.Admission,
		Detail: fmt.Sprintf("|Δ| ≤ %.3g", tol.Admission),
	})

	r.Checks = append(r.Checks, countCheck("help_msgs",
		simOut.Stats.HelpMsgs, liveOut.Stats.HelpMsgs, tol))
	r.Checks = append(r.Checks, countCheck("pledge_msgs",
		simOut.Stats.PledgeMsgs, liveOut.Stats.PledgeMsgs, tol))

	return r, nil
}

// countCheck compares a message counter: within MsgSlack absolutely, or
// within MsgFactor multiplicatively.
func countCheck(name string, a, b uint64, tol Tolerance) ParityCheck {
	diff := a - b
	if b > a {
		diff = b - a
	}
	ok := diff <= tol.MsgSlack
	if !ok && a > 0 && b > 0 {
		hi, lo := float64(a), float64(b)
		if lo > hi {
			hi, lo = lo, hi
		}
		ok = hi/lo <= tol.MsgFactor
	}
	return ParityCheck{
		Name: name, Sim: float64(a), Live: float64(b), OK: ok,
		Detail: fmt.Sprintf("|Δ| ≤ %d or ratio ≤ %.3g", tol.MsgSlack, tol.MsgFactor),
	}
}
