package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Golden is a blessed run summary. Every metric, the trace digest
// included, is compared exactly: the simulator is deterministic, so any
// drift is a change someone must bless.
type Golden struct {
	Summary Summary `json:"summary"`
}

// Canonical renders the golden in the blessed byte form (the same
// two-space-indent convention as Spec.Canonical).
func (g Golden) Canonical() []byte {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// DecodeGolden parses golden.json bytes strictly: an unknown field is
// an error.
func DecodeGolden(data []byte) (Golden, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Golden
	if err := dec.Decode(&g); err != nil {
		return Golden{}, fmt.Errorf("scenario: golden: %w", err)
	}
	return g, nil
}

// MetricDiff is one row of a golden comparison.
type MetricDiff struct {
	Metric    string
	Want, Got string
	OK        bool
}

// numericMetrics orders the comparable summary fields; the two trace
// fields are appended by Diff with exact string comparison.
var numericMetrics = []struct {
	name string
	get  func(Summary) float64
}{
	{"offered", func(s Summary) float64 { return float64(s.Offered) }},
	{"admitted", func(s Summary) float64 { return float64(s.Admitted) }},
	{"rejected", func(s Summary) float64 { return float64(s.Rejected) }},
	{"migrated", func(s Summary) float64 { return float64(s.Migrated) }},
	{"help_msgs", func(s Summary) float64 { return float64(s.HelpMsgs) }},
	{"pledge_msgs", func(s Summary) float64 { return float64(s.PledgeMsgs) }},
	{"advert_msgs", func(s Summary) float64 { return float64(s.AdvertMsgs) }},
	{"control_msgs", func(s Summary) float64 { return float64(s.ControlMsgs) }},
	{"message_units", func(s Summary) float64 { return s.MessageUnits }},
	{"admission_pct", func(s Summary) float64 { return s.AdmissionPct }},
	{"units_per_task", func(s Summary) float64 { return s.UnitsPerTask }},
	{"reject_pct", func(s Summary) float64 { return s.RejectPct }},
}

// Diff compares a fresh summary against the golden, one row per metric;
// a row passes only on exact equality.
func (g Golden) Diff(got Summary) []MetricDiff {
	out := make([]MetricDiff, 0, len(numericMetrics)+2)
	for _, m := range numericMetrics {
		w, v := m.get(g.Summary), m.get(got)
		out = append(out, MetricDiff{
			Metric: m.name,
			Want:   fmtNum(w), Got: fmtNum(v),
			OK: v == w,
		})
	}
	out = append(out, MetricDiff{
		Metric: "trace_events",
		Want:   fmt.Sprint(g.Summary.TraceEvents), Got: fmt.Sprint(got.TraceEvents),
		OK: g.Summary.TraceEvents == got.TraceEvents,
	})
	out = append(out, MetricDiff{
		Metric: "trace_digest",
		Want:   g.Summary.TraceDigest, Got: got.TraceDigest,
		OK: g.Summary.TraceDigest == got.TraceDigest,
	})
	return out
}

// Drifted reports whether any row failed.
func Drifted(diffs []MetricDiff) bool {
	for _, d := range diffs {
		if !d.OK {
			return true
		}
	}
	return false
}

// Report renders the comparison as an aligned table, FAIL rows first
// marked so a drifting gate reads at a glance. It always includes every
// row: a reviewer deciding whether to bless needs the passing context
// too.
func Report(diffs []MetricDiff) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-22s %-22s %s\n", "metric", "golden", "got", "ok")
	for _, d := range diffs {
		status := "PASS"
		if !d.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-16s %-22s %-22s %s\n", d.Metric, d.Want, d.Got, status)
	}
	return b.String()
}

func fmtNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6f", v)
}
