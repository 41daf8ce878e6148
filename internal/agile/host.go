// Package agile is the live Agile Objects runtime of Sections 3 and 6:
// host servers that schedule timer-style components with an EDF run
// queue, discover spare capacity with the very same REALTOR
// implementation the simulator uses (internal/core), and place
// components with the simulator's placement machine (internal/place),
// migrating them through speculative admission negotiation and a
// versioned naming service. It reproduces the paper's Figure 9
// measurement without the 20-machine cluster: hosts are actors
// exchanging real messages over a transport. Each host is one sans-IO
// Step; a driver feeds it, on virtual time over the in-process fabric
// or on the scaled wall clock over UDP (driver.go).
package agile

import (
	"math"
	"sync/atomic"
	"time"

	"realtor/internal/agile/naming"
	"realtor/internal/agile/sched"
	"realtor/internal/agile/transport"
	"realtor/internal/place"
	"realtor/internal/protocol"
	"realtor/internal/resource"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// HostStats are one host's counters, safe to read while running.
type HostStats struct {
	Offered     atomic.Uint64 // components first submitted to this host
	Rejected    atomic.Uint64 // components this host's machine rejected
	Migrated    atomic.Uint64 // components migrated in and admitted here
	MigrateFail atomic.Uint64 // tries denied here, or timed out at their origin
	Completed   atomic.Uint64
	// DeadlineMiss counts completed components that finished after their
	// absolute deadline (deadline 0 means "no deadline").
	DeadlineMiss atomic.Uint64
	// LatenessSum accumulates max(0, finish − deadline) over completed
	// deadline-bearing components, and LatenessMax tracks the worst case.
	LatenessSum atomicFloat
	LatenessMax atomicFloat
}

// atomicFloat is a float64 updated with CAS; the host's steps are the
// only writer, but on the wall-clock driver readers (stats aggregation)
// run concurrently.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat) Max(v float64) {
	for {
		old := a.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Host is one actor in the cluster.
type Host struct {
	id      int
	cluster *Cluster
	ep      transport.Endpoint
	queue   *sched.RunQueue
	env     *liveEnv
	m       place.Machine // holds the host's Discovery instance

	at         float64 // scaled instant of the step in progress
	lastDrain  float64 // scaled time of the last queue drain
	crossing   protocol.Timer
	drainTimer protocol.Timer // fires when the queue is expected to empty

	admSeq    uint64
	pending   map[uint64]*pendingMigration
	offered   uint64 // naming version the admission request in hand observed
	injectSeq uint64

	killed bool

	Stats HostStats
}

// pendingMigration is a try this host originated, awaiting its verdict.
type pendingMigration struct {
	tr    place.Try
	timer protocol.Timer
}

func newHost(id int, c *Cluster) *Host {
	h := &Host{
		id:      id,
		cluster: c,
		ep:      c.net.Endpoint(id),
		queue:   sched.NewRunQueue(c.cfg.QueueCapacity, c.cfg.SchedPolicy),
		pending: make(map[uint64]*pendingMigration),
	}
	h.env = &liveEnv{host: h}
	d := c.newDiscovery()
	h.m = place.New(topology.NodeID(id), h.env, d, c.cfg.Protocol.Threshold, c.cfg.MaxTries)
	d.Attach(h.env)
	return h
}

// Input is what one step consumes: a delivered packet, or a posted
// command or fired timer (Run). Exactly one field is set.
type Input struct {
	Packet *transport.Packet
	Run    func()
}

// Step runs one host step at scaled instant at. It reads no clock and
// starts no goroutine: its sends go to the fabric and its timer arms to
// the cluster's driver, which feeds every later input back through
// Step. One step reads one instant, as one simulator event does: the
// instant a delivery's observer reports is the instant the protocol
// stamps on what it delivered.
func (h *Host) Step(at float64, in Input) {
	h.at = at
	if in.Run != nil {
		in.Run()
		return
	}
	pkt := in.Packet
	if h.killed {
		// A downed host drops traffic on the floor; account for
		// protocol messages so the conservation ledger balances.
		if pkt.Disc != nil {
			if o := h.cluster.cfg.Observer; o != nil {
				o.OnDrop(sim.Time(h.now()), topology.NodeID(pkt.From),
					topology.NodeID(h.id), *pkt.Disc, trace.DropDead)
			}
		}
		return
	}
	h.handlePacket(*pkt)
}

// Kill takes the host down without stopping its actor: the queue is
// discarded (work in flight is lost, as on a crashed machine), protocol
// soft state is dropped, and incoming traffic is ignored until Revive.
// Negotiations this host originated resolve with place.OriginDied — a
// crashed origin can never place its components, and leaving them
// unresolved would both leak a timeline outcome and break task
// conservation (I5).
func (h *Host) Kill() {
	h.cluster.drv.post(h, func() {
		if h.killed {
			return
		}
		h.killed = true
		h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.NodeKill,
			Node: topology.NodeID(h.id), Peer: -1})
		h.drain()
		for {
			j, ok := h.queue.Pop()
			if !ok {
				break
			}
			h.cluster.naming.Deregister(j.ID)
		}
		stopTimer(h.drainTimer)
		h.m.Kill()
		for seq, pm := range h.pending {
			pm.timer.Stop()
			delete(h.pending, seq)
			h.resolve(pm.tr, false, place.OriginDied)
		}
	})
}

// Revive brings a killed host back with an empty queue and a fresh
// protocol instance — the same stateless restart the simulator models.
func (h *Host) Revive() {
	h.cluster.drv.post(h, func() {
		if !h.killed {
			return
		}
		h.killed = false
		h.lastDrain = h.now()
		h.cluster.emit(trace.Event{At: sim.Time(h.lastDrain), Kind: trace.NodeRevive,
			Node: topology.NodeID(h.id), Peer: -1})
		d := h.cluster.newDiscovery()
		h.m.Revive(d)
		d.Attach(h.env)
	})
}

// Alive reports whether the host is serving (step confined; use via
// Inspect or accept momentary staleness on the wall-clock driver).
func (h *Host) Alive() bool { return !h.killed }

// now returns the scaled instant of the step in progress.
func (h *Host) now() float64 { return h.at }

// stopTimer stops t if one is armed.
func stopTimer(t protocol.Timer) {
	if t != nil {
		t.Stop()
	}
}

// drain advances the run queue to the current time, completing jobs and
// checking their deadlines. Completion instants are exact: jobs complete
// in scheduling order, so the k-th completed job finishes when the
// cumulative drained work reaches it.
func (h *Host) drain() {
	now := h.now()
	start := h.lastDrain
	dt := now - start
	if dt <= 0 {
		return
	}
	h.lastDrain = now
	elapsed := 0.0
	for _, j := range h.queue.Drain(dt) {
		elapsed += j.Cost
		h.Stats.Completed.Add(1)
		if j.Deadline > 0 {
			if late := start + elapsed - j.Deadline; late > 0 {
				h.Stats.DeadlineMiss.Add(1)
				h.Stats.LatenessSum.Add(late)
				h.Stats.LatenessMax.Max(late)
			}
		}
		h.cluster.naming.Deregister(j.ID)
	}
}

// Submit offers a fresh component to this host, on the actor loop. In
// the paper's measurement "each task [is] a timer waiting to expire", so
// a component's migratable state is its remaining time (Size) and its
// absolute deadline (0 for none). It is born here: registered before
// admission, so that a later migration is a naming *move* (Figure 1).
func (h *Host) Submit(t place.Task) {
	h.cluster.drv.post(h, func() {
		t.Node = topology.NodeID(h.id)
		if h.killed {
			h.m.Arrive(sim.Time(h.now()), t, place.DeadNode) // arrivals at a downed host are lost
			return
		}
		h.drain()
		h.cluster.naming.Register(t.ID, naming.HostID(h.id))
		h.m.Arrive(sim.Time(h.now()), t, "")
	})
}

// armDrainTimer schedules a drain a millisecond of the clock after the
// queue is expected to empty, so completions (and their naming cleanup)
// happen on time even on an otherwise idle host. Queues drain lazily on
// every step; this timer is only the idle-host backstop, and its lag
// lets the drain find the queue empty however the drained costs round.
func (h *Host) armDrainTimer() {
	stopTimer(h.drainTimer)
	h.drainTimer = h.cluster.drv.after(h, h.cluster.toClock(h.queue.Backlog())+time.Millisecond, func() {
		h.drain()
		if h.queue.Len() > 0 {
			h.armDrainTimer()
		}
	})
}

// resolve hands the machine the verdict of a try this host originated.
// An answer that is not a grant is checked against naming first: a
// grant whose answer was lost still moved the component (LateGrant),
// and a component that left naming was placed and has since completed
// or died with its host (Vanished). Either way the host that accepted
// it reported it, so the verdict is a placement. Otherwise the origin
// claims the component back — a versioned move onto itself — so that a
// request still in flight can no longer be admitted anywhere, and the
// machine's retry or reject is the component's only fate.
func (h *Host) resolve(tr place.Try, granted bool, why string) {
	up := why != place.OriginDied
	for !granted {
		e, ok := h.cluster.naming.Get(tr.Task.ID)
		if !ok {
			granted, why = true, place.Vanished
		} else if e.Host != naming.HostID(h.id) {
			granted, why, tr.To = true, place.LateGrant, topology.NodeID(e.Host)
		} else if _, err := h.cluster.naming.Move(tr.Task.ID, e.Host, e.Version); err == nil {
			break
		}
	}
	h.m.Verdict(sim.Time(h.now()), tr, granted, up, why)
}

func (h *Host) handlePacket(p transport.Packet) {
	h.drain()
	switch {
	case p.Disc != nil:
		// The observer fires before Deliver mutates protocol state, the
		// same instant the engine's delivery event does.
		if o := h.cluster.cfg.Observer; o != nil {
			o.OnDeliver(sim.Time(h.now()), topology.NodeID(h.id), *p.Disc)
		}
		h.m.Disco.Deliver(*p.Disc)
	case p.Adm != nil && p.Adm.Request:
		// The destination side of speculative migration: the component
		// state arrived with the request, so admission is an enqueue and
		// the answer completes the move.
		adm := *p.Adm
		tr := place.Try{From: topology.NodeID(p.From), To: topology.NodeID(h.id),
			Task: place.Task{Task: workload.Task{ID: adm.Component, Node: topology.NodeID(p.From),
				Size: adm.Cost, Arrive: sim.Time(adm.Arrive)}, Deadline: adm.Deadline}}
		adm.Request = false
		h.offered = adm.Version
		adm.Granted = h.m.Admit(sim.Time(h.now()), tr)
		h.ep.Send(p.From, transport.Packet{Adm: &adm})
	case p.Adm != nil:
		pm, ok := h.pending[p.Adm.Seq]
		if !ok {
			return // late answer after a timeout: already resolved
		}
		delete(h.pending, p.Adm.Seq)
		stopTimer(pm.timer)
		h.resolve(pm.tr, p.Adm.Granted, "")
	}
}

// Usage returns Backlog/Capacity. Step confined: read it only from
// this host's step (an observer callback this host emitted, or
// Inspect).
func (h *Host) Usage() float64 { return h.queue.Backlog() / h.queue.Capacity() }

// Headroom returns Capacity − Backlog (step confined, see Usage).
func (h *Host) Headroom() float64 { return h.queue.Capacity() - h.queue.Backlog() }

// Capacity returns the host's queue capacity (immutable after start).
func (h *Host) Capacity() float64 { return h.queue.Capacity() }

// Discovery returns the host's protocol instance, which is replaced on
// Revive. Step confined, see Usage.
func (h *Host) Discovery() protocol.Discovery { return h.m.Disco }

// Inject forces up to size seconds of bogus work into the host's queue
// through the same bookkeeping as a real admission — threshold-crossing
// detection included — without touching the task statistics: the live
// counterpart of engine.Inject, and the hook resource-exhaustion
// attacks must use. The injected amount is capped at the queue's
// current headroom. It blocks until the host's actor has applied the
// injection and returns the amount actually injected (0 when the host
// is down, stopped, or full).
func (h *Host) Inject(size float64) float64 {
	if size <= 0 {
		return 0
	}
	var accepted float64
	h.cluster.drv.call(h, func() {
		if h.killed {
			return
		}
		h.drain()
		if hr := h.Headroom(); size > hr {
			size = hr
		}
		if size <= 0 {
			return
		}
		h.injectSeq++
		// Bogus work lives outside the component ID space: high bit set,
		// host ID in the upper half, so it can never collide with a
		// driven component or another host's injections.
		id := uint64(1)<<63 | uint64(h.id)<<32 | h.injectSeq
		if !h.queue.Push(sched.Job{ID: id, Cost: size}) {
			return
		}
		accepted = size
		if o := h.cluster.cfg.Observer; o != nil {
			o.OnInject(sim.Time(h.now()), topology.NodeID(h.id), size)
		}
		h.armDrainTimer()
		h.m.Inject(sim.Time(h.now()))
	})
	return accepted
}

// Inspect runs fn as a step of the host and waits for it: the safe way
// for tests and examples to observe step-confined state.
func (h *Host) Inspect(fn func(h *Host)) {
	h.cluster.drv.call(h, func() {
		h.drain()
		fn(h)
	})
}

// liveEnv adapts the actor host to protocol.Env, letting the simulator's
// REALTOR implementation run unmodified on the live runtime, and to
// place.Port, letting the simulator's placement machine run on it too.
type liveEnv struct {
	host *Host
}

var (
	_ protocol.Env = (*liveEnv)(nil)
	_ place.Port   = (*liveEnv)(nil)
)

func (e *liveEnv) Self() topology.NodeID { return topology.NodeID(e.host.id) }
func (e *liveEnv) Now() sim.Time         { return sim.Time(e.host.now()) }
func (e *liveEnv) Usage() float64        { return e.host.Usage() }
func (e *liveEnv) Headroom() float64     { return e.host.Headroom() }
func (e *liveEnv) Capacity() float64     { return e.host.queue.Capacity() }

func (e *liveEnv) Flood(m protocol.Message) {
	h := e.host
	c := h.cluster
	now := sim.Time(h.now())
	self := topology.NodeID(h.id)
	c.countFlood(m.Kind)
	c.emit(trace.Event{At: now, Kind: trace.MsgSend, Node: self, Peer: -1,
		Info: protocol.FloodInfo(m.Kind)})
	// OnSend fires once per recipient — the fabric broadcasts by
	// iterated unicast, and that is what the conservation ledger counts.
	if o := c.cfg.Observer; o != nil {
		for i := range c.hosts {
			if i == h.id {
				continue
			}
			o.OnSend(now, self, topology.NodeID(i), m)
		}
	}
	mm := m
	h.ep.Broadcast(transport.Packet{Disc: &mm})
}

func (e *liveEnv) Unicast(to topology.NodeID, m protocol.Message) {
	h := e.host
	c := h.cluster
	now := sim.Time(h.now())
	self := topology.NodeID(h.id)
	c.countUnicast(m.Kind)
	c.emit(trace.Event{At: now, Kind: trace.MsgSend, Node: self, Peer: to,
		Info: m.Kind.String()})
	if o := c.cfg.Observer; o != nil {
		o.OnSend(now, self, to, m)
	}
	mm := m
	h.ep.Send(int(to), transport.Packet{Disc: &mm})
}

func (e *liveEnv) After(d sim.Time, fn func()) protocol.Timer {
	return e.host.cluster.drv.after(e.host, e.host.cluster.toClock(float64(d)), fn)
}

// Backlog is the run queue's, drained at the start of the actor step.
func (e *liveEnv) Backlog(sim.Time) float64 { return e.host.queue.Backlog() }

// Accept enqueues the component if it fits. A component migrating in
// is first moved here on naming, against the version its origin
// observed when it sent the request: the versioned move makes placement
// at-most-once, so a request that lost a race with another placement,
// or with its origin's own verdict (see resolve), is denied and never
// reaches the queue.
func (e *liveEnv) Accept(_ sim.Time, t place.Task) bool {
	h := e.host
	if !h.queue.Fits(t.Size) {
		return false
	}
	if t.Node != topology.NodeID(h.id) {
		if _, err := h.cluster.naming.Move(t.ID, naming.HostID(h.id), h.offered); err != nil {
			return false
		}
	}
	h.queue.Push(sched.Job{ID: t.ID, Deadline: t.Deadline, Cost: t.Size})
	h.armDrainTimer()
	return true
}

// Emit counts a placement step into the host's counters and traces it.
func (e *liveEnv) Emit(ev trace.Event, _ sim.Time) {
	h := e.host
	switch ev.Kind {
	case trace.Arrival:
		h.Stats.Offered.Add(1)
	case trace.MigrateTry:
		h.cluster.controlMsgs.Add(1)
	case trace.MigrateOK:
		h.Stats.Migrated.Add(1)
	case trace.MigrateFail:
		h.Stats.MigrateFail.Add(1)
	case trace.Reject:
		h.Stats.Rejected.Add(1)
	}
	h.cluster.emit(ev)
}

// Outcome reports a component's fate. A rejected one leaves naming,
// but only while its entry still points here.
func (e *liveEnv) Outcome(t place.Task, _ sim.Time, admitted bool) {
	c := e.host.cluster
	if !admitted {
		if entry, ok := c.naming.Get(t.ID); ok && entry.Host == naming.HostID(e.host.id) {
			c.naming.Deregister(t.ID)
		}
	}
	if c.cfg.OnOutcome != nil {
		c.cfg.OnOutcome(float64(t.Arrive), admitted)
	}
}

// Request ships the component's state with the admission request
// (speculative migration) and waits for the answer — or for the
// negotiation timeout, since the transport may be lossy.
func (e *liveEnv) Request(_ sim.Time, tr place.Try) {
	h := e.host
	h.admSeq++
	seq := h.admSeq
	pm := &pendingMigration{tr: tr}
	h.pending[seq] = pm
	pm.timer = h.cluster.drv.after(h, h.cluster.toClock(h.cluster.cfg.NegotiationTimeout), func() {
		delete(h.pending, seq)
		h.resolve(tr, false, place.Timeout)
	})
	t := tr.Task
	entry, _ := h.cluster.naming.Get(t.ID)
	h.ep.Send(int(tr.To), transport.Packet{Adm: &transport.Admission{Request: true, Seq: seq,
		Component: t.ID, Cost: t.Size, Deadline: t.Deadline, Arrive: float64(t.Arrive), Version: entry.Version}})
}

// ArmCrossing (re)arms the falling crossing on a host timer. toClock
// rounds down, so the timer waits one more nanosecond: fired a tick
// early, the pledge it releases would report a queue above threshold.
func (e *liveEnv) ArmCrossing(_ sim.Time, over float64) {
	h := e.host
	e.CancelCrossing()
	h.crossing = h.cluster.drv.after(h, h.cluster.toClock(over)+time.Nanosecond, func() {
		h.drain()
		h.m.Cross(sim.Time(h.now()))
	})
}

func (e *liveEnv) CancelCrossing() { stopTimer(e.host.crossing) }

// Eligible accepts every candidate: the live fabric is fully connected
// and carries no placement attributes, and a dead host answers no
// negotiation, which times out.
func (e *liveEnv) Eligible(topology.NodeID, resource.Attrs) bool { return true }
