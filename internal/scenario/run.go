package scenario

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
)

// SpecFile and GoldenFile are the two files a package directory holds.
const (
	SpecFile   = "scenario.json"
	GoldenFile = "golden.json"
)

// Package is one loaded scenario package.
type Package struct {
	Dir    string
	Spec   Spec
	Golden *Golden // nil until blessed
}

// LoadPackage reads and validates a package directory.
func LoadPackage(dir string) (*Package, error) {
	data, err := os.ReadFile(filepath.Join(dir, SpecFile))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sp, err := DecodeSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	if base := filepath.Base(dir); base != sp.Name {
		return nil, fmt.Errorf("scenario: %s: directory %q does not match spec name %q", dir, base, sp.Name)
	}
	p := &Package{Dir: dir, Spec: sp}
	gdata, err := os.ReadFile(filepath.Join(dir, GoldenFile))
	switch {
	case err == nil:
		g, err := DecodeGolden(gdata)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		p.Golden = &g
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return p, nil
}

// List returns the package directories under root (every directory
// containing a scenario.json), sorted by name.
func List(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(dir, SpecFile)); err == nil {
			dirs = append(dirs, dir)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Result is one gated package run.
type Result struct {
	Backend  string
	Shards   int
	Outcome  harness.Outcome
	Summary  Summary
	BandErrs []string     // expect-band misses
	Diffs    []MetricDiff // golden comparison; nil when not gated
}

// Failed reports whether the gate rejects the run: an oracle violation,
// a band miss, or golden drift.
func (r Result) Failed() bool {
	return r.Outcome.Failed() || len(r.BandErrs) > 0 || Drifted(r.Diffs)
}

// Explain renders every complaint the gate has, empty when clean.
func (r Result) Explain() string {
	var b strings.Builder
	if r.Outcome.Failed() {
		fmt.Fprintf(&b, "oracle: %d violation(s) (+%d dropped), first: %s\n",
			len(r.Outcome.Violations), r.Outcome.Dropped, r.Outcome.Violations[0])
	}
	for _, e := range r.BandErrs {
		fmt.Fprintf(&b, "band: %s\n", e)
	}
	if Drifted(r.Diffs) {
		fmt.Fprintf(&b, "golden drift:\n%s", Report(r.Diffs))
	}
	return b.String()
}

// RunConfig tunes RunWith beyond the defaults Run uses.
type RunConfig struct {
	// Ctx cancels the run cooperatively; RunWith then returns
	// harness.ErrCanceled (wrapped) and no Result. nil = Background.
	Ctx context.Context

	// OnProgress receives periodic snapshots (see harness.RunOptions).
	OnProgress func(harness.Progress)
}

// Run executes the package on the backend with the invariant oracle
// attached, summarizes the run, and applies the gate: expect bands on
// every backend, the golden comparison only on the simulator (sharded
// or not) and only when a golden exists: a package's golden is a
// simulator run, which a live run does not reproduce.
func Run(p *Package, be harness.Backend, shards int) (Result, error) {
	return RunWith(p, be, shards, RunConfig{})
}

// RunWith is Run under a RunConfig: same gate, plus cooperative
// cancellation and progress probing. A cancelled run yields
// harness.ErrCanceled and no Result — partial summaries must never
// reach the gate or a golden.
func RunWith(p *Package, be harness.Backend, shards int, rc RunConfig) (Result, error) {
	s := p.Spec.Effective()
	dig := &Digest{}
	out, err := harness.RunCheckedOpts(be, s, fuzzscen.Builder(s), harness.RunOptions{
		Trace:      dig,
		Ctx:        rc.Ctx,
		OnProgress: rc.OnProgress,
	})
	if err != nil {
		return Result{}, fmt.Errorf("scenario: %s: %w", p.Spec.Name, err)
	}
	res := Result{
		Backend: be.Name(),
		Shards:  shards,
		Outcome: out,
		Summary: NewSummary(out.Stats, dig),
	}
	res.BandErrs = p.Spec.Expect.Check(res.Summary)
	if p.Golden != nil && be.Name() == "sim" {
		res.Diffs = p.Golden.Diff(res.Summary)
	}
	return res, nil
}

// Backend builds the harness backend a name selects: "sim" (the
// deterministic engine, sharded when shards > 1) or "live" (the Agile
// cluster on its deterministic driver, where shards has no meaning and
// any value other than 1 is rejected rather than silently ignored).
func Backend(name string, shards int) (harness.Backend, error) {
	switch name {
	case "sim":
		if shards < 1 {
			return nil, fmt.Errorf("scenario: shards must be >= 1 (got %d)", shards)
		}
		return harness.SimSharded(shards), nil
	case "live":
		if shards != 1 {
			return nil, fmt.Errorf("scenario: the live backend has no shards (got %d)", shards)
		}
		return harness.Live(), nil
	}
	return nil, fmt.Errorf("scenario: unknown backend %q (want sim|live)", name)
}

// Bless writes (or rewrites) the package's golden.json from a summary.
func Bless(p *Package, sum Summary) error {
	g := Golden{Summary: sum}
	if err := os.WriteFile(filepath.Join(p.Dir, GoldenFile), g.Canonical(), 0o644); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	p.Golden = &g
	return nil
}

// WritePackage materializes a spec as a package directory under root
// (root/<name>/scenario.json, canonical bytes) and returns the
// directory. The golden is not written — bless it from a run.
func WritePackage(root string, sp Spec) (string, error) {
	if err := sp.Validate(); err != nil {
		return "", err
	}
	dir := filepath.Join(root, sp.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scenario: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, SpecFile), sp.Canonical(), 0o644); err != nil {
		return "", fmt.Errorf("scenario: %w", err)
	}
	return dir, nil
}
