package main

import (
	"errors"
	"strings"
	"testing"

	"realtor/internal/experiment"
)

// TestRunKernelStats pins the -kernelstats diagnostic: the counters must
// be internally consistent (fired ≤ scheduled, nothing pending after a
// completed run) and show the pooled kernel actually reusing slots —
// the observable behind the zero-alloc steady-state claim. Run at 1 and
// 4 shards: the sharded kernel sums per-shard schedulers and must
// schedule and fire the same events the sequential kernel does.
func TestRunKernelStats(t *testing.T) {
	outputs := map[int]string{}
	for _, shards := range []int{1, 4} {
		var b strings.Builder
		runKernelStats(&b, 1, shards, 300)
		out := b.String()
		for _, want := range []string{
			"shards=" + map[int]string{1: "1", 4: "4"}[shards],
			"admitted", "events scheduled", "messages per event", "slots reused", "still pending",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("shards=%d output missing %q:\n%s", shards, want, out)
			}
		}
		outputs[shards] = out
	}
	// Identical protocol work at any shard count: the admitted and
	// messages-delivered lines are part of the byte-identity contract
	// (the event, reuse and pool lines are per-scheduler internals and
	// may differ — a flood is one wave per destination shard).
	line := func(out, prefix string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	for _, prefix := range []string{"admitted", "messages delivered"} {
		if a, b := line(outputs[1], prefix), line(outputs[4], prefix); a == "" || a != b {
			t.Fatalf("%q lines diverge across shard counts: %q vs %q", prefix, a, b)
		}
	}
}

// policyStudy runs `-fig policy -quick` with the given -policy spec: the
// real cell grid, in a window short enough for unit tests.
func policyStudy(t *testing.T, spec string) (string, error) {
	t.Helper()
	st, ok := experiment.Lookup("policy")
	if !ok {
		t.Fatal("no policy study in the catalogue")
	}
	return st.Run(experiment.Options{Seed: 1, Quick: true, Policy: spec})
}

// TestRunPolicyStudy exercises the -fig policy writer: header comments,
// one section per arrival rate, every default variant present, and a
// "custom" row when a -policy spec is supplied.
func TestRunPolicyStudy(t *testing.T) {
	out, err := policyStudy(t, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# R2 traffic-protection", "## lambda=5", "## lambda=8", "attack", "recover-s",
		"baseline", "bucket", "breaker", "retry", "elastic", "stack",
		"exhaust", "flap", "churn",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("policy study output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "custom") {
		t.Fatal("custom row present without a -policy spec")
	}

	out, err = policyStudy(t, "bucket:rate=0.5,burst=2;breaker")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "custom") {
		t.Fatalf("spec did not add a custom row:\n%s", out)
	}
}

// TestRunPolicyStudyRejectsBadSpecs pins the -policy flag's validation:
// malformed specs must fail fast — before any simulation — with a
// pointed error that main turns into exit status 2.
func TestRunPolicyStudyRejectsBadSpecs(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"bogus", "unknown policy name"},
		{"bucket:rate=-1", "must be positive"},
		{"bucket:rate=0.5,burst=0", "at least 1 token"},
		{"breaker:trip", "malformed parameter"},
		{"retry:strategy=frob", "unknown retry strategy"},
	}
	for _, c := range cases {
		out, err := policyStudy(t, c.spec)
		if !errors.Is(err, experiment.ErrOption) {
			t.Fatalf("spec %q: error %v is not an ErrOption", c.spec, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %q does not mention %q", c.spec, err, c.want)
		}
		if out != "" {
			t.Errorf("spec %q: output written despite the error", c.spec)
		}
	}
}
