package scenario

import (
	"context"
	"testing"

	"realtor/internal/check"
	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
	"realtor/internal/trace"
)

// inlineDigest runs s with a trace buffer tee'd straight into the hooks,
// on the emitting goroutine under their mutex, and folds the digest
// inline over the capture.
func inlineDigest(t *testing.T, be harness.Backend, s fuzzscen.Scenario) *Digest {
	t.Helper()
	hooks := &harness.Hooks{}
	buf := &trace.Buffer{}
	hooks.Tee(buf, nil)
	inst, err := be.Start(s, fuzzscen.Builder(s), hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	hooks.Bind(check.NewWorldOracle(inst.World()))
	inst.Run(context.Background())
	d := &Digest{}
	for _, ev := range buf.Events() {
		d.Record(ev)
	}
	return d
}

// The digest RunWith folds on the harness's drain goroutine equals the
// digest folded inline over the same run's captured trace: for every
// committed package at 1 and 4 shards, and for baseline-poisson on the
// live backend.
func TestPipelineDigestMatchesInlineCapture(t *testing.T) {
	dirs, err := List(scenRoot)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		be     harness.Backend
		shards int
	}
	multi := false // some run spans more than one batch
	for _, d := range dirs {
		p, err := LoadPackage(d)
		if err != nil {
			t.Fatal(err)
		}
		runs := []run{{harness.SimSharded(1), 1}, {harness.SimSharded(4), 4}}
		if p.Spec.Name == "baseline-poisson" {
			runs = append(runs, run{harness.Live(), 1})
		}
		for _, r := range runs {
			res, err := Run(p, r.be, r.shards)
			if err != nil {
				t.Fatal(err)
			}
			want := inlineDigest(t, r.be, p.Spec.Effective())
			if res.Summary.TraceDigest != want.Sum() || res.Summary.TraceEvents != want.Events() {
				t.Fatalf("%s (%s, %d shards): pipeline digest %s/%d, inline %s/%d", p.Spec.Name, r.be.Name(), r.shards,
					res.Summary.TraceDigest, res.Summary.TraceEvents, want.Sum(), want.Events())
			}
			multi = multi || want.Events() > 2048
		}
	}
	if !multi {
		t.Fatal("no package spans two batches of 1 024 events; the drain goroutine went untested")
	}
}
