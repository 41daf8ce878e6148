// Package attack injects the adverse conditions the paper motivates
// REALTOR with: external attacks that take nodes down, regional attacks
// that wipe out a contiguous part of the mesh, flapping nodes that leave
// and rejoin repeatedly, resource-exhaustion attacks that saturate a
// victim's queue without killing it, and (links.go) cuts, partitions and
// churn of the network itself.
//
// It is the one fault schedule of both kernels. A Scenario schedules its
// actions on a Target before the run starts: *engine.Engine is the
// simulator's Target, and the harness's live backend implements one over
// the Agile cluster, whose links are every pair of hosts. A scenario is
// a plain value, so it replays deterministically on either.
package attack

import (
	"fmt"

	"realtor/internal/engine"
	"realtor/internal/resource"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Target is what a fault schedule acts on. Each method must be one both
// kernels can honour (Downgrade, which needs node attributes, is
// engine-only). At runs fn at instant t with the instant it ran at, and
// calls never overlap; Kill and Revive are idempotent; Inject caps the
// bogus work at the node's headroom and returns what it accepted;
// CutLink and RestoreLink report whether they changed anything; and
// LinkList lists the links up, each once as (a, b) with a < b, ascending.
type Target interface {
	At(t sim.Time, fn func(now sim.Time))
	Kill(id topology.NodeID)
	Revive(id topology.NodeID)
	Inject(now sim.Time, id topology.NodeID, size float64) float64
	CutLink(a, b topology.NodeID) bool
	RestoreLink(a, b topology.NodeID) bool
	LinkList() [][2]topology.NodeID
}

// Scenario schedules attack events onto a Target before the run.
type Scenario interface {
	// Name identifies the scenario in reports.
	Name() string
	// Apply schedules the scenario's events on t.
	Apply(t Target)
}

// Kill takes a fixed set of nodes down at At and, if Revive > At, brings
// them back at Revive.
type Kill struct {
	Targets []topology.NodeID
	At      sim.Time
	Revive  sim.Time // 0 (or ≤ At) means the nodes stay down
}

// Name implements Scenario.
func (k Kill) Name() string {
	return fmt.Sprintf("kill-%d@%g", len(k.Targets), float64(k.At))
}

// Apply implements Scenario.
func (k Kill) Apply(e Target) {
	targets := append([]topology.NodeID(nil), k.Targets...)
	e.At(k.At, func(sim.Time) {
		for _, id := range targets {
			e.Kill(id)
		}
	})
	if k.Revive > k.At {
		e.At(k.Revive, func(sim.Time) {
			for _, id := range targets {
				e.Revive(id)
			}
		})
	}
}

// RandomKill kills Count distinct random nodes at At (and optionally
// revives them), drawing targets deterministically from Seed.
type RandomKill struct {
	Count  int
	N      int // node-ID space to draw from
	At     sim.Time
	Revive sim.Time
	Seed   int64
}

// Name implements Scenario.
func (r RandomKill) Name() string {
	return fmt.Sprintf("random-kill-%d@%g", r.Count, float64(r.At))
}

// Apply implements Scenario.
func (r RandomKill) Apply(e Target) {
	if r.Count > r.N {
		panic("attack: more kills than nodes")
	}
	perm := rng.New(r.Seed).Derive("random-kill").Perm(r.N)
	targets := make([]topology.NodeID, r.Count)
	for i := range targets {
		targets[i] = topology.NodeID(perm[i])
	}
	Kill{Targets: targets, At: r.At, Revive: r.Revive}.Apply(e)
}

// Region kills a rectangle of a rows×cols mesh: rows [R0, R1) × columns
// [C0, C1). It models a localized physical or network attack.
type Region struct {
	Rows, Cols     int // mesh dimensions
	R0, R1, C0, C1 int
	At             sim.Time
	Revive         sim.Time
}

// Name implements Scenario.
func (r Region) Name() string {
	return fmt.Sprintf("region-[%d:%d)x[%d:%d)@%g", r.R0, r.R1, r.C0, r.C1, float64(r.At))
}

// Targets lists the node IDs inside the region.
func (r Region) Targets() []topology.NodeID {
	if r.R0 < 0 || r.R1 > r.Rows || r.C0 < 0 || r.C1 > r.Cols || r.R0 >= r.R1 || r.C0 >= r.C1 {
		panic("attack: region out of mesh bounds")
	}
	var out []topology.NodeID
	for row := r.R0; row < r.R1; row++ {
		for col := r.C0; col < r.C1; col++ {
			out = append(out, topology.NodeID(row*r.Cols+col))
		}
	}
	return out
}

// Apply implements Scenario.
func (r Region) Apply(e Target) {
	Kill{Targets: r.Targets(), At: r.At, Revive: r.Revive}.Apply(e)
}

// Flap repeatedly kills and revives one node: down for DownFor, up for
// UpFor, starting at Start and stopping after Until. It stresses the
// soft-state refresh path — a protocol holding hard state would keep
// routing tasks to the flapping node.
//
// End-state: a flap window that ends mid-down leaves the node DEAD for
// the rest of the run — revives are only scheduled strictly before
// Until, because a flap models an attack, and an attack that is still
// holding the node when the window closes has won that node. Pinned by
// TestFlapEndingMidDownLeavesNodeDead; extend Until past the final
// DownFor (or compose with Kill{Revive: ...}) if the node must return.
type Flap struct {
	Target  topology.NodeID
	Start   sim.Time
	DownFor sim.Time
	UpFor   sim.Time
	Until   sim.Time
}

// Name implements Scenario.
func (f Flap) Name() string {
	return fmt.Sprintf("flap-%d", f.Target)
}

// Apply implements Scenario.
func (f Flap) Apply(e Target) {
	if f.DownFor <= 0 || f.UpFor <= 0 {
		panic("attack: flap durations must be positive")
	}
	for t := f.Start; t < f.Until; t += f.DownFor + f.UpFor {
		e.At(t, func(sim.Time) { e.Kill(f.Target) })
		if up := t + f.DownFor; up < f.Until {
			e.At(up, func(sim.Time) { e.Revive(f.Target) })
		}
	}
}

// NodeChurn flaps random nodes: every Interval seconds from Start until
// Until, one node drawn (seeded, deterministic) from the ID space is
// killed and revived Down seconds later. This is churn in the Chord
// sense — membership flux rather than network damage — and it is the
// scenario that separates directory overlays from floods: a DHT whose
// band home dies loses the directory until republication, while a flood
// just stops hearing one voice. The graph is never mutated, so distance
// fast paths stay valid at any scale.
type NodeChurn struct {
	Start    sim.Time
	Until    sim.Time
	Interval sim.Time
	Down     sim.Time
	N        int // node-ID space to draw from
	Seed     int64
}

// Name implements Scenario.
func (c NodeChurn) Name() string {
	return fmt.Sprintf("node-churn@%g", float64(c.Start))
}

// Apply implements Scenario.
func (c NodeChurn) Apply(e Target) {
	if c.Interval <= 0 || c.Down <= 0 {
		panic("attack: node churn interval and down-time must be positive")
	}
	if c.N <= 0 {
		panic("attack: node churn needs a positive ID space")
	}
	// Targets are drawn up front so the schedule is a pure function of
	// the seed; Kill/Revive are idempotent, so a node re-picked while
	// still down just extends nothing and revives on the first timer.
	rnd := rng.New(c.Seed).Derive("node-churn")
	for t := c.Start; t < c.Until; t += c.Interval {
		id := topology.NodeID(rnd.Intn(c.N))
		e.At(t, func(now sim.Time) {
			e.Kill(id)
			e.At(now+c.Down, func(sim.Time) {
				e.Revive(id)
			})
		})
	}
}

// Exhaust saturates a victim's queue with bogus work every Interval
// seconds between At and Until — a resource-exhaustion attack that leaves
// the node alive (and still answering discovery messages) but useless.
type Exhaust struct {
	Target   topology.NodeID
	At       sim.Time
	Until    sim.Time
	Interval sim.Time
	Chunk    float64 // seconds of bogus work per injection
}

// Name implements Scenario.
func (x Exhaust) Name() string {
	return fmt.Sprintf("exhaust-%d", x.Target)
}

// Apply implements Scenario.
func (x Exhaust) Apply(e Target) {
	if x.Interval <= 0 || x.Chunk <= 0 {
		panic("attack: exhaust interval and chunk must be positive")
	}
	for t := x.At; t < x.Until; t += x.Interval {
		e.At(t, func(now sim.Time) {
			// Inject goes through the kernel's admission bookkeeping so
			// threshold-crossing detection (and hence the victim's own
			// pledge retraction) sees the bogus load; it caps the chunk
			// at the available headroom and no-ops on dead/full nodes.
			e.Inject(now, x.Target, x.Chunk)
		})
	}
}

// Composite applies several scenarios as one.
type Composite struct {
	Label string
	Parts []Scenario
}

// Name implements Scenario.
func (c Composite) Name() string { return c.Label }

// Apply implements Scenario.
func (c Composite) Apply(e Target) {
	for _, p := range c.Parts {
		p.Apply(e)
	}
}

// Downgrade lowers the security level of a set of nodes at At —
// modelling a partial compromise that leaves hosts running but no longer
// trusted — and restores their original attributes at Restore (if set).
// Components that require a higher level must migrate away; this is the
// information-assurance scenario of the paper's introduction. It needs
// node attributes, which only the simulator has, so it is not a
// Scenario and applies to an engine only.
type Downgrade struct {
	Targets  []topology.NodeID
	At       sim.Time
	Restore  sim.Time // ≤ At means never
	Security int      // new (lower) security level
}

// Name identifies the downgrade in reports.
func (d Downgrade) Name() string {
	return fmt.Sprintf("downgrade-%d@%g", len(d.Targets), float64(d.At))
}

// Apply schedules the downgrade on e.
func (d Downgrade) Apply(e *engine.Engine) {
	targets := append([]topology.NodeID(nil), d.Targets...)
	before := make([]resource.Attrs, len(targets))
	e.At(d.At, func(sim.Time) {
		for i, id := range targets {
			before[i] = e.Attrs(id)
			a := before[i]
			a.Security = d.Security
			e.SetAttrs(id, a)
		}
	})
	if d.Restore > d.At {
		e.At(d.Restore, func(sim.Time) {
			for i, id := range targets {
				e.SetAttrs(id, before[i])
			}
		})
	}
}
