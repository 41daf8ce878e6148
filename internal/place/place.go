// Package place is the per-node placement machine both kernels drive:
// arrival → local admission → threshold crossing → one-try migration →
// verdict → retry or reject, the pipeline of the paper's Sections 3 and
// 5 around the discovery protocol. It is sans-IO: a kernel feeds it
// inputs and carries out what it asks through a Port. The engine maps a
// request to an event HopDelay × distance away; the live Agile host maps
// it to a packet with a negotiation timeout.
package place

import (
	"realtor/internal/protocol"
	"realtor/internal/resource"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// Task is a unit of work the machine places: the workload task plus, on
// the live runtime, the absolute deadline its EDF run queue orders by.
type Task struct {
	workload.Task
	Deadline float64
}

// A Try is one migration attempt of a task from its origin to a target.
type Try struct {
	Task     Task
	From, To topology.NodeID
	Attempt  int // 1 for the first try
}

// Verdict reasons a kernel attaches to a try that did not end with the
// target's plain answer (the empty reason), and DeadNode, the reason an
// arrival at a downed node is refused.
const (
	Timeout           = "timeout"            // no answer within the live negotiation timeout
	LateGrant         = "late-grant"         // the answer was lost, but naming shows the task placed
	Vanished          = "vanished"           // the task left naming, which only a placed task does
	OriginDied        = "origin-died"        // the origin was killed with the try in flight
	OriginUnreachable = "origin-unreachable" // the target cannot route its answer back
	DeadNode          = "dead-node"
)

// Queue is what the machine needs of a node's run queue: the fluid
// node.Node on the simulator, the EDF sched.RunQueue on the live host.
type Queue interface {
	Backlog(now sim.Time) float64 // seconds of queued work
	Capacity() float64
	Accept(now sim.Time, t Task) bool // enqueue t if it fits
}

// Port is how the machine acts on its kernel, always from the node's
// own execution context (its shard, or its actor).
type Port interface {
	Queue
	// Emit records one placement step of a task that arrived at
	// instant arrive (0 for crossings); kernels count their statistics
	// from its kind.
	Emit(ev trace.Event, arrive sim.Time)
	// Outcome reports a task's final fate, exactly once per task.
	Outcome(t Task, at sim.Time, admitted bool)
	// Request carries tr's task to tr.To, whose machine answers with
	// Admit; the verdict goes to the origin's machine.
	Request(now sim.Time, tr Try)
	// ArmCrossing (re)arms the falling crossing `over` seconds of
	// draining after now, delivered through Cross.
	ArmCrossing(now sim.Time, over float64)
	CancelCrossing()
	// Eligible reports whether node id may host a task requiring req:
	// this node at arrival and acceptance, or a migration candidate.
	Eligible(id topology.NodeID, req resource.Attrs) bool
}

// Tries normalises a configured try bound: 0 means 1.
func Tries(maxTries int) int { return max(maxTries, 1) }

// Machine is one node's placement state: whether its usage is above the
// threshold, and its discovery protocol instance.
type Machine struct {
	Disco protocol.Discovery // replaced on Revive
	port  Port
	limit float64 // the threshold's backlog: threshold × capacity
	tries int
	Self  topology.NodeID
	above bool
}

// New returns the machine of node self: threshold is the usage fraction
// of Algorithms H and P, maxTries the candidates a migration may walk.
func New(self topology.NodeID, port Port, d protocol.Discovery, threshold float64, maxTries int) Machine {
	return Machine{Self: self, Disco: d, port: port, limit: threshold * port.Capacity(), tries: Tries(maxTries)}
}

// Arrive runs one task arriving here. refuse, when set, is the kernel's
// reason the task cannot run here at all (DeadNode); the task is
// rejected with it. Otherwise the protocol sees the arrival first
// (Algorithm H's trigger is "whenever a task arrives"), then the task is
// admitted locally if it fits, or its migration is tried. A node that
// cannot satisfy the task's attributes has trivially exceeded that
// resource's threshold, so the protocol sees maximal demand.
func (m *Machine) Arrive(now sim.Time, t Task, refuse string) {
	m.port.Emit(trace.Event{At: now, Kind: trace.Arrival, Node: t.Node, Peer: -1, Size: t.Size}, t.Arrive)
	if refuse != "" {
		m.reject(now, t, m.Self, -1, refuse)
		return
	}
	fits := m.port.Eligible(m.Self, t.Require)
	if fits {
		m.Disco.OnArrival(t.Size)
	} else {
		m.Disco.OnArrival(m.port.Capacity())
	}
	if fits && m.port.Accept(now, t) {
		m.port.Emit(trace.Event{At: now, Kind: trace.AdmitLocal, Node: m.Self, Peer: -1, Size: t.Size}, t.Arrive)
		m.port.Outcome(t, now, true)
		m.afterAccept(now)
		return
	}
	m.try(now, t, 1)
}

// try is one migration try: the protocol's best eligible candidate other
// than this node gets an admission request, or the task is rejected.
func (m *Machine) try(now sim.Time, t Task, attempt int) {
	for _, c := range m.Disco.Candidates(t.Size) {
		if c.ID != m.Self && m.port.Eligible(c.ID, t.Require) {
			m.port.Emit(trace.Event{At: now, Kind: trace.MigrateTry, Node: m.Self, Peer: c.ID, Size: t.Size}, t.Arrive)
			m.port.Request(now, Try{Task: t, From: m.Self, To: c.ID, Attempt: attempt})
			return
		}
	}
	m.reject(now, t, m.Self, -1, "no-candidate")
}

// Admit is the target side of a try: the task asks to run here. The
// placement is decided, and a success reported, here and now — the
// origin learns the verdict later. It reports whether the task was
// admitted.
func (m *Machine) Admit(now sim.Time, tr Try) bool {
	t := tr.Task
	ok := m.port.Eligible(m.Self, t.Require) && m.port.Accept(now, t)
	if !ok {
		m.port.Emit(trace.Event{At: now, Kind: trace.MigrateFail, Node: tr.From, Peer: m.Self, Size: t.Size}, t.Arrive)
		return false
	}
	m.port.Emit(trace.Event{At: now, Kind: trace.MigrateOK, Node: tr.From, Peer: m.Self, Size: t.Size}, t.Arrive)
	m.port.Outcome(t, now, true)
	m.afterAccept(now)
	return true
}

// Verdict resolves try tr: placed says whether the task runs at the
// target, up whether the origin is still the incarnation that sent the
// try, and why names a verdict that is not the target's plain answer. An
// origin that is up learns the outcome (a failed candidate is evicted,
// so a retry walks down its list) and, within the try bound, retries a
// failed task; otherwise a failed task is rejected. A placed task was
// reported where it was admitted. The origin's machine takes every
// verdict except OriginUnreachable, which only the target's can.
func (m *Machine) Verdict(now sim.Time, tr Try, placed, up bool, why string) {
	t := tr.Task
	if up {
		m.Disco.OnMigrationOutcome(tr.To, t.Size, placed)
	}
	if placed {
		return
	}
	if why == Timeout {
		// The target never answered, so nothing recorded the failed try.
		m.port.Emit(trace.Event{At: now, Kind: trace.MigrateFail, Node: tr.From, Peer: tr.To, Size: t.Size, Info: why}, t.Arrive)
	}
	if up && tr.Attempt < m.tries {
		m.try(now, t, tr.Attempt+1)
		return
	}
	switch why {
	case OriginDied:
		m.reject(now, t, tr.From, -1, why)
	case OriginUnreachable:
		m.reject(now, t, tr.From, tr.To, why)
	default:
		m.reject(now, t, tr.From, -1, "tries-exhausted")
	}
}

func (m *Machine) reject(now sim.Time, t Task, node, peer topology.NodeID, why string) {
	m.port.Emit(trace.Event{At: now, Kind: trace.Reject, Node: node, Peer: peer, Size: t.Size, Info: why}, t.Arrive)
	m.port.Outcome(t, now, false)
}

// afterAccept re-evaluates the threshold after work was queued: the
// rising crossing fires at once, and the falling crossing is (re)armed
// for the instant the queue drains back to the threshold.
func (m *Machine) afterAccept(now sim.Time) {
	backlog := m.port.Backlog(now)
	if backlog <= m.limit {
		return
	}
	if !m.above {
		m.above = true
		m.port.Emit(trace.Event{At: now, Kind: trace.CrossUp, Node: m.Self, Peer: -1}, 0)
		m.Disco.OnUsageCrossing(true)
	}
	m.port.ArmCrossing(now, backlog-m.limit)
}

// Cross is the armed falling crossing coming due. It fires at the
// instant it was armed for, without re-reading the queue: the drain to
// the threshold is deterministic, and the instant is the float sum
// now + over, so a re-check could find the backlog a rounding error
// above the threshold and lose the crossing.
func (m *Machine) Cross(now sim.Time) {
	if !m.above {
		return
	}
	m.above = false
	m.port.Emit(trace.Event{At: now, Kind: trace.CrossDown, Node: m.Self, Peer: -1}, 0)
	m.Disco.OnUsageCrossing(false)
}

// Inject re-evaluates the threshold after the kernel queued bogus work
// (a resource-exhaustion attack), exactly as after an admission.
func (m *Machine) Inject(now sim.Time) { m.afterAccept(now) }

// Kill drops the node's placement state with its protocol's soft state.
func (m *Machine) Kill() {
	m.Disco.OnNodeDeath()
	m.above = false
	m.port.CancelCrossing()
}

// Revive installs a fresh protocol instance; the kernel attaches it.
func (m *Machine) Revive(d protocol.Discovery) { m.Disco = d }
