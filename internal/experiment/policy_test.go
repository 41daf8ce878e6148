package experiment

import (
	"strings"
	"testing"
)

// shortPolicyStudy shrinks the study's window so the 24 cells run in
// test time while still spanning warmup, attack, and recovery.
func shortPolicyStudy() PolicyStudy {
	return PolicyStudy{
		Lambda: 5, Seed: 1,
		Warmup: 30, Duration: 300,
		AttackAt: 100, Recover: 200, BinWidth: 25,
	}
}

func TestPolicyStudyStructure(t *testing.T) {
	rows := RunPolicy(shortPolicyStudy())
	if len(rows) != 24 { // 6 variants × 4 attacks
		t.Fatalf("%d rows, want 24", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Attack+"/"+r.Policy] = true
		if r.Admission <= 0 || r.Admission > 1 {
			t.Errorf("%s/%s: implausible admission %v", r.Attack, r.Policy, r.Admission)
		}
		if r.RejectPct < 0 || r.RejectPct > 100 {
			t.Errorf("%s/%s: reject%% %v", r.Attack, r.Policy, r.RejectPct)
		}
		if r.MessageUnits <= 0 {
			t.Errorf("%s/%s: no protocol traffic", r.Attack, r.Policy)
		}
	}
	for _, a := range []string{"none", "exhaust", "flap", "churn"} {
		for _, p := range []string{"baseline", "bucket", "breaker", "retry", "elastic", "stack"} {
			if !seen[a+"/"+p] {
				t.Errorf("missing cell %s/%s", a, p)
			}
		}
	}
	table := PolicyTable(rows)
	if !strings.HasPrefix(table, "attack") || strings.Count(table, "\n") < 25 {
		t.Fatalf("malformed table:\n%s", table)
	}
}

// TestPolicyStudyStackSurvivesExhaust pins the study's headline (and
// the PR's acceptance row): the composed stack's admission under the
// exhaustion attack must match or beat bare REALTOR's.
func TestPolicyStudyStackSurvivesExhaust(t *testing.T) {
	rows := RunPolicy(shortPolicyStudy())
	var base, stack *PolicyRow
	for i := range rows {
		if rows[i].Attack != "exhaust" {
			continue
		}
		switch rows[i].Policy {
		case "baseline":
			base = &rows[i]
		case "stack":
			stack = &rows[i]
		}
	}
	if base == nil || stack == nil {
		t.Fatal("exhaust rows missing")
	}
	if stack.Admission < base.Admission-1e-9 {
		t.Fatalf("stack admission %.4f under exhaust is below baseline %.4f",
			stack.Admission, base.Admission)
	}
}
