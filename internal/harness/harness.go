// Package harness unifies the repo's two REALTOR runtimes — the
// discrete-event simulator (internal/engine) and the live Agile Objects
// cluster (internal/agile) — behind one backend-agnostic run pipeline,
// mirroring how the paper validates the protocol twice: by simulation
// (Section 5) and by live measurement (Section 6).
//
// A Backend builds a runnable Instance from a fuzzscen.Scenario, wiring
// the shared Hooks surface (trace events + full-payload message
// observation) into whatever its runtime natively emits. Everything
// downstream — the invariant oracle of internal/check, trace sinks, the
// sim↔live parity comparison — consumes only the Backend/Instance
// surface and therefore runs unchanged against either runtime.
package harness

import (
	"context"
	"errors"

	"realtor/internal/check"
	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
	"realtor/internal/metrics"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// Backend is a runtime able to execute a fuzz scenario. Implementations:
// Sim() (the discrete-event engine) and Live() (the Agile cluster on
// its deterministic driver). Both run on virtual time, so the oracle
// audits both exactly.
type Backend interface {
	// Name identifies the backend ("sim", "live") in reports and CLIs.
	Name() string

	// Start builds a ready-to-run Instance for the scenario, wiring
	// hooks as the runtime's trace recorder and message observer. The
	// protocol under test comes from build (fuzzscen.Builder for the
	// honest path, fuzzscen.MutantBuilder for mutation testing). A
	// non-nil onProgress receives a snapshot every Duration/64 of
	// scaled time during Run, only from quiescent points of the run loop
	// (the simulator's checkpoint barriers; timed commands on the live
	// cluster), so an observed run stays byte-identical to an
	// unobserved one on the simulator.
	Start(s fuzzscen.Scenario, build engine.Builder, hooks *Hooks, onProgress func(Progress)) (Instance, error)
}

// Progress is one live snapshot of a running scenario.
type Progress struct {
	Now    sim.Time // backend clock, scaled seconds
	End    sim.Time // scenario duration (the clock runs past it while settling)
	Events uint64   // scheduler events fired so far — kernel effort, not messages delivered (0 on backends without an event counter)
	Stats  metrics.RunStats

	// Violations counts oracle findings so far (including dropped ones);
	// filled in by RunCheckedOpts, always 0 for a bare Backend.Start.
	Violations int
}

// ErrCanceled is returned by RunCheckedOpts when the run's context was
// cancelled: the scenario stopped mid-flight, so there is no outcome —
// partial stats would fail conservation audits by construction and must
// never be compared or blessed.
var ErrCanceled = errors.New("harness: run canceled")

// Instance is one prepared run.
type Instance interface {
	// World exposes the backend's node/protocol state to the oracle.
	World() check.World

	// Run drives the scenario's workload and fault schedule to
	// completion (including any settling the runtime needs) and returns
	// the aggregated run statistics. Cancelling the context stops the
	// run at the backend's next cancellation point; Canceled then
	// reports true and the returned stats are partial.
	Run(ctx context.Context) metrics.RunStats

	// Canceled reports whether the last Run stopped early on a done
	// context.
	Canceled() bool

	// Now returns the backend clock after Run (scaled seconds).
	Now() sim.Time

	// EachNodeSafe invokes fn once per node from a context where that
	// node's protocol state may be read — inline on the simulator, as a
	// step of each host on the live cluster.
	EachNodeSafe(fn func(id topology.NodeID))

	// Close releases the instance's resources (transports, hosts).
	// It is idempotent.
	Close()
}

// Hooks is the unified observation funnel handed to a Backend at Start:
// the backend wires it in as both its trace.Recorder and its
// trace.MessageObserver. It is check.Hooks, whose mutex serializes
// shard workers in front of the oracle.
type Hooks = check.Hooks

// Outcome is what one oracle-checked run yields on any backend.
type Outcome struct {
	Backend    string
	Stats      metrics.RunStats
	Violations []check.Violation
	Dropped    int // violations beyond check.MaxViolations
}

// Failed reports whether the oracle flagged anything.
func (o Outcome) Failed() bool { return len(o.Violations) > 0 }

// RunOptions tunes RunChecked.
type RunOptions struct {
	// Trace optionally tees the unified event stream to an extra
	// consumer (a trace digest, a JSONL file, …).
	Trace trace.Recorder

	// Ctx, when non-nil, cancels the run cooperatively: RunCheckedOpts
	// then returns ErrCanceled instead of an Outcome. nil means
	// context.Background().
	Ctx context.Context

	// OnProgress, when set, receives periodic progress snapshots —
	// including the oracle's running violation count — from the
	// backend's quiescent checkpoints. It must not block for long: on
	// the simulator the run loop waits on it.
	OnProgress func(Progress)
}

// RunChecked executes one scenario on the given backend with the
// invariant oracle attached and returns its verdict: the
// backend-agnostic successor of the old sim-only fuzzscen.Run.
func RunChecked(b Backend, s fuzzscen.Scenario, build engine.Builder) (Outcome, error) {
	return RunCheckedOpts(b, s, build, RunOptions{})
}

// RunCheckedOpts is RunChecked with an extra trace consumer,
// cooperative cancellation, and progress snapshots.
func RunCheckedOpts(b Backend, s fuzzscen.Scenario, build engine.Builder, opt RunOptions) (Outcome, error) {
	hooks := &Hooks{}
	hooks.Tee(opt.Trace, nil)
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// The probe closure reads the oracle assigned below — safe because
	// backends fire progress only from (or after) Run, which starts
	// strictly after the assignment, and the violation read serializes
	// behind the hooks mutex the emitting callbacks hold.
	var o *check.Oracle
	var onProgress func(Progress)
	if opt.OnProgress != nil {
		onProgress = func(p Progress) {
			hooks.Locked(func() { p.Violations = len(o.Violations()) + o.Dropped() })
			opt.OnProgress(p)
		}
	}
	inst, err := b.Start(s, build, hooks, onProgress)
	if err != nil {
		return Outcome{}, err
	}
	defer inst.Close()
	o = check.NewWorldOracle(inst.World())
	hooks.Bind(o)
	stats := inst.Run(ctx)
	if inst.Canceled() {
		// No outcome: the end-of-run audits assume a settled system, and
		// partial stats fail conservation by construction.
		return Outcome{}, ErrCanceled
	}
	now := inst.Now()
	// Per-node audits run in each node's safe context, taking the event
	// mutex inside that context.
	inst.EachNodeSafe(func(id topology.NodeID) {
		hooks.Locked(func() { o.FinishNode(now, id) })
	})
	hooks.Locked(func() { o.FinishTotals(now) })
	return Outcome{
		Backend:    b.Name(),
		Stats:      stats,
		Violations: o.Violations(),
		Dropped:    o.Dropped(),
	}, nil
}
