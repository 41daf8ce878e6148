package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func runCLI(args ...string) (int, string, string) {
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// A flag the chosen entry or mode does not read is a usage error: exit
// 2 with a one-line message, before anything runs or is written.
func TestCLIUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-fig", "nope"},
		{"-no-such-flag"},
		{"-shards", "0"},
		{"-fig", "policy"}, // R2 and its middleware are retired
		{"-fig", "ab", "-scenario", "flap"},
		{"-fig", "ab", "-transport", "udp"},
		{"-fig", "9", "-transport", "carrier-pigeon"},
		{"-fig", "5", "-lambdas", "1,x"},
		{"-fig", "5", "-lambdas", "0"},
		{"-out", dir, "-csv"},
		{"-out", dir, "-plot"},
		{"-out", dir, "-diff"},
		{"-out", dir, "-fig", "5"},
		{"-fig", "9", "-csv"},
		{"-fig", "attack", "-diff"},
		{"-fig", "ab", "-plot"},
		{"-fig", "ab", "-lambdas", "3"},
		{"-fig", "ab", "-duration", "100"},
		{"-fig", "live-attack", "-lambdas", "3"},
		{"-fig", "9", "-reps", "2"},
		{"-json"},
		{"-kinds", "arrival"},
		{"-proto", "Push-1"},
		{"-trace", "-proto", "nope"},
		{"-trace", "-out", dir},
		{"-kernelstats", "-fig", "5"},
	} {
		code, out, errs := runCLI(args...)
		said := strings.HasPrefix(errs, "realtor-sim:") || strings.Contains(errs, "flag provided but not defined")
		if code != 2 || out != "" || !said {
			t.Errorf("args %v: exit %d, stdout %q, stderr %q; want exit 2 and a usage message", args, code, out, errs)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a rejected -out run wrote %d file(s)", len(entries))
	}
}

// The live entries are wired to the cluster and carry the committed
// recipe's header; under -quick the clock runs at 400x.
func TestLiveEntriesPrintCommittedHeader(t *testing.T) {
	for _, c := range []struct {
		args []string
		file string
	}{
		{[]string{"-fig", "live-attack", "-quick"}, "live_attack.txt"},
		{[]string{"-fig", "9", "-quick", "-lambdas", "2", "-duration", "40"}, "figure_9.txt"},
	} {
		code, out, errs := runCLI(c.args...)
		if code != 0 {
			t.Fatalf("args %v: exit %d: %s", c.args, code, errs)
		}
		raw, err := os.ReadFile(filepath.Join(resultsDir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := strings.Cut(strings.Replace(string(raw), "100x scale", "400x scale", 1), "\n")
		if got, _, _ := strings.Cut(out, "\n"); got != want {
			t.Errorf("args %v: header %q, want %q", c.args, got, want)
		}
	}
}
