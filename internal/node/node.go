// Package node models a simulated host: a single CPU draining a FIFO
// queue of work measured in seconds.
//
// This matches the paper's Section 5 setup: "Each node is assumed to have
// a single queue of 100 seconds to process tasks. Task lengths are defined
// in seconds ... a task with value 2 holds the CPU on the node for 2
// seconds." Resource usage is queue occupancy as a fraction of capacity;
// the 0.9 thresholds of Algorithm H/P are evaluated against it.
//
// The model is analytic rather than event-per-completion: the backlog at
// any instant is derived from the backlog recorded at the last touch time,
// drained at one second of work per second of simulated time. This keeps
// the event count (and therefore run time) independent of the number of
// queued tasks while producing the exact same trajectories as explicit
// departure events would.
package node

import (
	"fmt"

	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Node is one simulated host.
type Node struct {
	id       topology.NodeID
	capacity float64 // queue capacity in seconds of work

	backlog float64  // seconds of queued work as of `asOf`
	asOf    sim.Time // when backlog was last materialized

	alive bool
}

// New returns an alive node with the given queue capacity in seconds.
func New(id topology.NodeID, capacity float64) *Node {
	if capacity <= 0 {
		panic("node: capacity must be positive")
	}
	return &Node{id: id, capacity: capacity, alive: true}
}

// ID returns the node's topology identifier.
func (n *Node) ID() topology.NodeID { return n.id }

// Capacity returns the queue capacity in seconds.
func (n *Node) Capacity() float64 { return n.capacity }

// Alive reports whether the node is up. Dead nodes accept nothing and
// answer no protocol messages.
func (n *Node) Alive() bool { return n.alive }

// Kill marks the node dead and discards its backlog (an attacked or
// crashed host loses its queue). Work in flight is simply lost; the
// paper's protocols are soft-state exactly so that this is survivable.
func (n *Node) Kill(now sim.Time) {
	n.advance(now)
	n.alive = false
	n.backlog = 0
}

// Revive brings a dead node back with an empty queue.
func (n *Node) Revive(now sim.Time) {
	n.advance(now)
	n.alive = true
	n.backlog = 0
}

// advance materializes the backlog at time now.
func (n *Node) advance(now sim.Time) {
	dt := float64(now - n.asOf)
	if dt < 0 {
		panic(fmt.Sprintf("node %d: time moved backwards (%v -> %v)", n.id, n.asOf, now))
	}
	// Backlog is piecewise linear: it drains at one second per second
	// until it hits zero, then stays there.
	n.backlog = max(n.backlog-dt, 0)
	n.asOf = now
}

// Backlog returns the seconds of work queued at time now.
func (n *Node) Backlog(now sim.Time) float64 {
	n.advance(now)
	return n.backlog
}

// Usage returns queue occupancy in [0, 1] at time now.
func (n *Node) Usage(now sim.Time) float64 {
	return n.Backlog(now) / n.capacity
}

// Headroom returns the seconds of work the node can still accept.
func (n *Node) Headroom(now sim.Time) float64 {
	if !n.alive {
		return 0
	}
	return n.capacity - n.Backlog(now)
}

// Fits reports whether a task of the given size would fit right now
// without exceeding capacity. It does not enqueue.
func (n *Node) Fits(now sim.Time, size float64) bool {
	return n.alive && n.Backlog(now)+size <= n.capacity
}

// WouldExceed reports whether admitting a task of the given size would
// push occupancy strictly above the threshold fraction. This is the
// predicate of Algorithm H ("the queue including the new task exceeds a
// certain level").
func (n *Node) WouldExceed(now sim.Time, size, threshold float64) bool {
	return n.Backlog(now)+size > threshold*n.capacity
}

// Accept enqueues a task of the given size. It returns false (and changes
// nothing) if the task does not fit or the node is dead.
func (n *Node) Accept(now sim.Time, size float64) bool {
	if size <= 0 {
		panic("node: task size must be positive")
	}
	if !n.Fits(now, size) {
		return false
	}
	n.backlog += size
	return true
}
