// Package protocoltest provides a scripted fake protocol.Env for unit
// testing Discovery implementations without the full engine: the test
// controls the clock, the local resource state, and observes every
// message and timer the protocol produces.
package protocoltest

import (
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Sent records one outgoing message.
type Sent struct {
	At      sim.Time
	To      topology.NodeID // -1 for floods
	Msg     protocol.Message
	Flooded bool
}

// FakeEnv is a controllable protocol.Env. Mutate the public fields
// directly; Advance fires due timers in order.
type FakeEnv struct {
	ID        topology.NodeID
	Clock     sim.Time
	Cap       float64
	Backlog   float64
	Outbox    []Sent
	scheduler *sim.Scheduler
}

var _ protocol.Env = (*FakeEnv)(nil)

// New returns a fake env for node id with the given queue capacity.
func New(id topology.NodeID, capacity float64) *FakeEnv {
	return &FakeEnv{ID: id, Cap: capacity, scheduler: sim.New()}
}

// Self implements protocol.Env.
func (f *FakeEnv) Self() topology.NodeID { return f.ID }

// Now implements protocol.Env.
func (f *FakeEnv) Now() sim.Time { return f.Clock }

// Usage implements protocol.Env.
func (f *FakeEnv) Usage() float64 { return f.Backlog / f.Cap }

// Headroom implements protocol.Env.
func (f *FakeEnv) Headroom() float64 { return f.Cap - f.Backlog }

// Capacity implements protocol.Env.
func (f *FakeEnv) Capacity() float64 { return f.Cap }

// Flood implements protocol.Env, recording the message.
func (f *FakeEnv) Flood(m protocol.Message) {
	f.Outbox = append(f.Outbox, Sent{At: f.Clock, To: -1, Msg: m, Flooded: true})
}

// Unicast implements protocol.Env, recording the message.
func (f *FakeEnv) Unicast(to topology.NodeID, m protocol.Message) {
	f.Outbox = append(f.Outbox, Sent{At: f.Clock, To: to, Msg: m})
}

// After implements protocol.Env using an embedded scheduler whose clock
// is advanced by Advance. The fake clock tracks the scheduler during
// callbacks so that timers re-armed from inside a callback fire at the
// right time.
func (f *FakeEnv) After(d sim.Time, fn func()) protocol.Timer {
	ev := f.scheduler.At(f.Clock+d, func(at sim.Time) {
		f.Clock = at
		fn()
	})
	return fakeTimer{s: f.scheduler, ev: ev}
}

type fakeTimer struct {
	s  *sim.Scheduler
	ev sim.Event
}

func (t fakeTimer) Stop() { t.s.Cancel(t.ev) }

// Advance moves the clock forward by d, firing any timers that come due.
func (f *FakeEnv) Advance(d sim.Time) {
	target := f.Clock + d
	f.scheduler.RunUntil(target)
	f.Clock = target
}

// Floods returns the recorded floods of the given kind.
func (f *FakeEnv) Floods(k protocol.Kind) []Sent {
	var out []Sent
	for _, s := range f.Outbox {
		if s.Flooded && s.Msg.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// Unicasts returns the recorded unicasts of the given kind.
func (f *FakeEnv) Unicasts(k protocol.Kind) []Sent {
	var out []Sent
	for _, s := range f.Outbox {
		if !s.Flooded && s.Msg.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// Reset clears the outbox (keeps clock and timers).
func (f *FakeEnv) Reset() { f.Outbox = nil }

// Inert is a Discovery that ignores everything and holds no state: a
// stand-in for nodes a test does not script, whose deliveries must
// cause no further traffic.
type Inert struct{}

var _ protocol.Discovery = Inert{}

func (Inert) Name() string                                      { return "inert" }
func (Inert) Attach(protocol.Env)                               {}
func (Inert) OnArrival(float64)                                 {}
func (Inert) OnUsageCrossing(bool)                              {}
func (Inert) Deliver(protocol.Message)                          {}
func (Inert) Candidates(float64) []protocol.Candidate           { return nil }
func (Inert) OnMigrationOutcome(topology.NodeID, float64, bool) {}
func (Inert) OnNodeDeath()                                      {}
