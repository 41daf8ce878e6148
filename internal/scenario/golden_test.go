package scenario

import (
	"strings"
	"testing"
)

func testSummary() Summary {
	return Summary{
		Offered: 200, Admitted: 190, Rejected: 10, Migrated: 20,
		HelpMsgs: 30, PledgeMsgs: 120, AdvertMsgs: 5, ControlMsgs: 400,
		MessageUnits: 812.5, AdmissionPct: 95, UnitsPerTask: 4.276315789473684,
		RejectPct: 5, TraceEvents: 950, TraceDigest: "00000000deadbeef",
	}
}

func TestGoldenDiffExactByDefault(t *testing.T) {
	g := Golden{Summary: testSummary()}
	if Drifted(g.Diff(testSummary())) {
		t.Fatal("identical summary reported as drifted")
	}
	got := testSummary()
	got.PledgeMsgs++
	diffs := g.Diff(got)
	if !Drifted(diffs) {
		t.Fatal("one-message drift passed a zero-tolerance golden")
	}
	var failed []string
	for _, d := range diffs {
		if !d.OK {
			failed = append(failed, d.Metric)
		}
	}
	if len(failed) != 1 || failed[0] != "pledge_msgs" {
		t.Fatalf("failed metrics %v, want exactly [pledge_msgs]", failed)
	}
}

// The trace digest never tolerates drift, and a golden cannot declare
// a tolerance for any metric: "tolerances" is an unknown field.
func TestGoldenDigestAlwaysExact(t *testing.T) {
	g := Golden{Summary: testSummary()}
	got := testSummary()
	got.TraceDigest = "00000000deadbee0"
	diffs := g.Diff(got)
	if !Drifted(diffs) {
		t.Fatal("digest drift passed")
	}
	for _, raw := range []string{
		`{"summary":{},"tolerances":{"trace_digest":1}}`,
		`{"summary":{},"tolerances":{"message_units":1}}`,
	} {
		if _, err := DecodeGolden([]byte(raw)); err == nil ||
			!strings.Contains(err.Error(), `unknown field "tolerances"`) {
			t.Fatalf("%s: err = %v, want rejection as an unknown field", raw, err)
		}
	}
}

// The drift report is a readable per-metric table: every metric has a
// row, failing rows say FAIL, and golden/got values are printed.
func TestReportReadable(t *testing.T) {
	g := Golden{Summary: testSummary()}
	got := testSummary()
	got.Admitted -= 3
	got.AdmissionPct = 93.5
	rep := Report(g.Diff(got))
	for _, want := range []string{"metric", "admitted", "FAIL", "190", "187", "admission_pct", "93.5", "trace_digest", "PASS"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}
