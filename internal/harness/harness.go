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
// Sim() (the deterministic discrete-event engine) and Live() (the
// goroutine-per-host Agile cluster on a real transport).
type Backend interface {
	// Name identifies the backend ("sim", "live") in reports and CLIs.
	Name() string

	// Slack returns the clock tolerance (scaled seconds) the invariant
	// oracle must allow on this backend's timing-sensitive checks: 0 for
	// the deterministic simulator, positive for wall-clock runtimes.
	Slack() sim.Time

	// Start builds a ready-to-run Instance for the scenario, wiring
	// hooks as the runtime's trace recorder and message observer. The
	// protocol under test comes from build (fuzzscen.Builder for the
	// honest path, fuzzscen.MutantBuilder for mutation testing). probe
	// configures periodic progress reporting; the zero Probe disables it.
	Start(s fuzzscen.Scenario, build engine.Builder, hooks *Hooks, probe Probe) (Instance, error)
}

// Probe asks a backend for periodic progress snapshots during Run.
// Backends invoke OnProgress only from quiescent points of their run
// loop (the simulator's checkpoint barriers; the live cluster's drive
// goroutine), so a run observed through a probe stays byte-identical
// to an unobserved one on the deterministic backend.
type Probe struct {
	// OnProgress receives snapshots; nil disables probing.
	OnProgress func(Progress)

	// Every is the minimum scaled-seconds between snapshots; 0 picks a
	// backend default (Duration/64).
	Every sim.Time
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
	// node's protocol state may be read — inline on the simulator, on
	// each host's actor loop on the live cluster.
	EachNodeSafe(fn func(id topology.NodeID))

	// Close releases the instance's resources (transports, host actors).
	// It is idempotent.
	Close()
}

// Hooks is the unified observation funnel handed to a Backend at Start:
// the backend wires it in as both its trace.Recorder and its
// trace.MessageObserver. It is check.Hooks, whose mutex serializes
// shard workers and live host actors in front of the oracle.
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
	// Trace/Observer optionally tee the unified event stream to extra
	// consumers (a DecisionLog, a JSONL file, …).
	Trace    trace.Recorder
	Observer trace.MessageObserver

	// Ctx, when non-nil, cancels the run cooperatively: RunCheckedOpts
	// then returns ErrCanceled instead of an Outcome. nil means
	// context.Background().
	Ctx context.Context

	// OnProgress, when set, receives periodic progress snapshots —
	// including the oracle's running violation count — from the
	// backend's quiescent checkpoints. It must not block for long: on
	// the simulator the run loop waits on it.
	OnProgress func(Progress)

	// ProgressEvery is the minimum scaled-seconds between snapshots
	// (0 = backend default of Duration/64).
	ProgressEvery sim.Time
}

// RunChecked executes one scenario on the given backend with the
// invariant oracle attached and returns its verdict: the
// backend-agnostic successor of the old sim-only fuzzscen.Run.
func RunChecked(b Backend, s fuzzscen.Scenario, build engine.Builder) (Outcome, error) {
	return RunCheckedOpts(b, s, build, RunOptions{})
}

// RunCheckedOpts is RunChecked with extra event consumers, cooperative
// cancellation, and progress probing.
func RunCheckedOpts(b Backend, s fuzzscen.Scenario, build engine.Builder, opt RunOptions) (Outcome, error) {
	hooks := &Hooks{}
	hooks.Tee(opt.Trace, opt.Observer)
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// The probe closure reads the oracle assigned below — safe because
	// backends fire progress only from (or after) Run, which starts
	// strictly after the assignment, and the violation read serializes
	// behind the hooks mutex the emitting callbacks hold.
	var o *check.Oracle
	probe := Probe{Every: opt.ProgressEvery}
	if opt.OnProgress != nil {
		probe.OnProgress = func(p Progress) {
			hooks.Locked(func() { p.Violations = len(o.Violations()) + o.Dropped() })
			opt.OnProgress(p)
		}
	}
	inst, err := b.Start(s, build, hooks, probe)
	if err != nil {
		return Outcome{}, err
	}
	defer inst.Close()
	o = check.NewWorldOracle(inst.World(), b.Slack())
	hooks.Bind(o)
	stats := inst.Run(ctx)
	if inst.Canceled() {
		// No outcome: the end-of-run audits assume a settled system, and
		// partial stats fail conservation by construction.
		return Outcome{}, ErrCanceled
	}
	now := inst.Now()
	// Per-node audits run in each node's safe context, taking the event
	// mutex INSIDE that context (taking it outside would deadlock: the
	// node's actor might be blocked on the mutex emitting an event while
	// we wait for the actor).
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
