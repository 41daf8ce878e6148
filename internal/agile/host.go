// Package agile is the live Agile Objects runtime of Sections 3 and 6:
// goroutine-per-host servers that schedule timer-style components with an
// EDF run queue, discover spare capacity with the very same REALTOR
// implementation the simulator uses (internal/core), and migrate
// components through speculative admission negotiation, updating a
// versioned naming service. It reproduces the paper's Figure 9
// measurement without the 20-machine cluster: hosts are actors exchanging
// real messages over an in-process or UDP transport, and the clock is
// wall time scaled by a configurable factor.
package agile

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"realtor/internal/agile/naming"
	"realtor/internal/agile/sched"
	"realtor/internal/agile/transport"
	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// Component is a migratable unit of work: in the paper's measurement
// "each task [is] a timer waiting to expire", so the migratable state is
// just the remaining time — which is exactly what makes speculative
// migration cheap.
type Component struct {
	ID       uint64
	Cost     float64 // execution time in scaled seconds
	Deadline float64 // absolute, scaled seconds since cluster start; 0 = none
	// Arrive is the task's arrival instant on the drive's clock (scaled
	// seconds since Drive began), the instant Config.OnOutcome reports.
	Arrive float64
}

// HostStats are one host's counters, safe to read while running.
type HostStats struct {
	Offered     atomic.Uint64 // components first submitted to this host
	RejectedRun atomic.Uint64 // local queue full at submission
	MigratedOut atomic.Uint64 // successfully pushed to another host
	MigratedIn  atomic.Uint64
	MigrateFail atomic.Uint64 // denied by the remote admission control
	Completed   atomic.Uint64
	// DeadlineMiss counts completed components that finished after their
	// absolute deadline (deadline 0 means "no deadline").
	DeadlineMiss atomic.Uint64
	// LatenessSum accumulates max(0, finish − deadline) over completed
	// deadline-bearing components, and LatenessMax tracks the worst case.
	LatenessSum atomicFloat
	LatenessMax atomicFloat
}

// atomicFloat is a float64 updated with CAS; the actor loop is the only
// writer but readers (stats aggregation) run concurrently.
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
	disco   protocol.Discovery

	cmds     chan func()
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	at         float64 // scaled instant of the actor step in progress
	lastDrain  float64 // scaled time of the last queue drain
	above      bool    // usage above threshold?
	crossing   *time.Timer
	drainTimer *time.Timer // fires when the queue is expected to empty

	admSeq    uint64
	pending   map[uint64]*pendingMigration
	injectSeq uint64

	killed bool

	Stats HostStats
}

type pendingMigration struct {
	comp    Component
	target  int
	attempt int
	timer   *time.Timer
}

func newHost(id int, c *Cluster) *Host {
	h := &Host{
		id:      id,
		cluster: c,
		ep:      c.net.Endpoint(id),
		queue:   sched.NewRunQueue(c.cfg.QueueCapacity, c.cfg.SchedPolicy),
		cmds:    make(chan func(), 1024),
		done:    make(chan struct{}),
		pending: make(map[uint64]*pendingMigration),
	}
	if c.cfg.Discovery != nil {
		h.disco = c.cfg.Discovery()
	} else {
		h.disco = core.New(c.cfg.Protocol)
	}
	h.disco.Attach(&liveEnv{host: h})
	return h
}

// ID returns the host's cluster ID.
func (h *Host) ID() int { return h.id }

// start launches the actor loop.
func (h *Host) start() {
	h.wg.Add(1)
	go h.loop()
}

// stop terminates the actor loop and waits for it. It is idempotent, so
// Cluster.Stop may run on both an error path and a deferred one.
func (h *Host) stop() {
	h.stopOnce.Do(func() { close(h.done) })
	h.wg.Wait()
}

// post schedules fn on the actor loop; it is safe from any goroutine and
// a silent no-op after stop (matching the engine's dead-node timers).
func (h *Host) post(fn func()) {
	select {
	case h.cmds <- fn:
	case <-h.done:
	}
}

func (h *Host) loop() {
	defer h.wg.Done()
	for {
		select {
		case <-h.done:
			return
		case fn := <-h.cmds:
			h.at = h.cluster.now()
			fn()
		case pkt, ok := <-h.ep.Inbox():
			if !ok {
				return
			}
			h.at = h.cluster.now()
			if h.killed {
				// A downed host drops traffic on the floor; account for
				// protocol messages so the conservation ledger balances.
				if pkt.Disc != nil {
					if o := h.cluster.cfg.Observer; o != nil {
						o.OnDrop(sim.Time(h.now()), topology.NodeID(pkt.From),
							topology.NodeID(h.id), *pkt.Disc, trace.DropDead)
					}
				}
				continue
			}
			h.handlePacket(pkt)
		}
	}
}

// Kill takes the host down without stopping its actor: the queue is
// discarded (work in flight is lost, as on a crashed machine), protocol
// soft state is dropped, and incoming traffic is ignored until Revive.
// Negotiations this host originated resolve as rejections — a crashed
// origin can never place its components, and leaving them unresolved
// would both leak a timeline outcome and break task conservation (I5).
func (h *Host) Kill() {
	h.post(func() {
		if h.killed {
			return
		}
		h.killed = true
		now := h.now()
		h.cluster.emit(trace.Event{At: sim.Time(now), Kind: trace.NodeKill,
			Node: topology.NodeID(h.id), Peer: -1})
		h.drain()
		for {
			j, ok := h.queue.Pop()
			if !ok {
				break
			}
			h.cluster.naming.Deregister(j.ID)
		}
		h.above = false
		if h.crossing != nil {
			h.crossing.Stop()
		}
		if h.drainTimer != nil {
			h.drainTimer.Stop()
		}
		for seq, pm := range h.pending {
			pm.timer.Stop()
			delete(h.pending, seq)
			h.Stats.RejectedRun.Add(1)
			h.cluster.emit(trace.Event{At: sim.Time(now), Kind: trace.Reject,
				Node: topology.NodeID(h.id), Peer: -1, Size: pm.comp.Cost, Info: "origin-died"})
			h.deregisterIfLocal(pm.comp.ID)
			h.cluster.outcome(pm.comp.Arrive, false)
		}
		h.disco.OnNodeDeath()
	})
}

// Revive brings a killed host back with an empty queue and a fresh
// protocol instance — the same stateless restart the simulator models.
func (h *Host) Revive() {
	h.post(func() {
		if !h.killed {
			return
		}
		h.killed = false
		h.lastDrain = h.now()
		h.cluster.emit(trace.Event{At: sim.Time(h.lastDrain), Kind: trace.NodeRevive,
			Node: topology.NodeID(h.id), Peer: -1})
		if h.cluster.cfg.Discovery != nil {
			h.disco = h.cluster.cfg.Discovery()
		} else {
			h.disco = core.New(h.cluster.cfg.Protocol)
		}
		h.disco.Attach(&liveEnv{host: h})
	})
}

// Alive reports whether the host is serving (actor-loop confined; use
// via Inspect or accept momentary staleness).
func (h *Host) Alive() bool { return !h.killed }

// now returns the scaled instant at which the actor step in progress
// began. One step reads one clock, as one simulator event does: the
// instant a delivery's observer reports is the instant the protocol
// stamps on what it delivered, however long the observer waited.
func (h *Host) now() float64 { return h.at }

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

func (h *Host) usage() float64 { return h.queue.Backlog() / h.queue.Capacity() }

// Submit offers a fresh component to this host (called by the workload
// driver). It runs on the actor loop.
func (h *Host) Submit(c Component) {
	h.post(func() {
		now := h.now()
		self := topology.NodeID(h.id)
		h.Stats.Offered.Add(1)
		h.cluster.emit(trace.Event{At: sim.Time(now), Kind: trace.Arrival,
			Node: self, Peer: -1, Size: c.Cost})
		if h.killed {
			h.Stats.RejectedRun.Add(1) // arrivals at a downed host are lost
			h.cluster.emit(trace.Event{At: sim.Time(now), Kind: trace.Reject,
				Node: self, Peer: -1, Size: c.Cost, Info: "dead-node"})
			h.cluster.outcome(c.Arrive, false)
			return
		}
		h.drain()
		// The component is born here: register before admission so that a
		// later migration is a naming *move*, exactly as in Figure 1.
		h.cluster.naming.Register(c.ID, naming.HostID(h.id))
		h.disco.OnArrival(c.Cost)
		if h.acceptLocal(c) {
			h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.AdmitLocal,
				Node: self, Peer: -1, Size: c.Cost})
			h.cluster.outcome(c.Arrive, true)
			return
		}
		h.tryMigrate(c, 1)
	})
}

// acceptLocal enqueues the component if it fits — the run queue's
// utilization test is the whole admission control — registering it
// with the naming service and re-arming threshold-crossing detection.
func (h *Host) acceptLocal(c Component) bool {
	if !h.queue.Push(sched.Job{ID: c.ID, Deadline: c.Deadline, Cost: c.Cost}) {
		return false
	}
	if e, ok := h.cluster.naming.Get(c.ID); !ok {
		h.cluster.naming.Register(c.ID, naming.HostID(h.id))
	} else if e.Host != naming.HostID(h.id) {
		// Migrated in: record the move (versioned, so a duplicate or
		// stale notification cannot clobber a newer location).
		h.cluster.naming.Move(c.ID, naming.HostID(h.id), e.Version)
	}
	h.afterAccept()
	h.armDrainTimer()
	return true
}

// armDrainTimer schedules a drain at the moment the queue is expected to
// empty, so completions (and their naming cleanup) happen on time
// even on an otherwise idle host. Queues drain lazily on every event;
// this timer is only the idle-host backstop.
func (h *Host) armDrainTimer() {
	if h.drainTimer != nil {
		h.drainTimer.Stop()
	}
	wall := h.cluster.toWall(h.queue.Backlog()) + time.Millisecond
	h.drainTimer = time.AfterFunc(wall, func() {
		h.post(func() {
			h.drain()
			if h.queue.Len() > 0 {
				h.armDrainTimer()
			}
		})
	})
}

// afterAccept mirrors the simulator's crossing detection: fire the rising
// edge immediately and schedule the falling edge at the deterministic
// drain-to-threshold time.
func (h *Host) afterAccept() {
	thr := h.cluster.cfg.Protocol.Threshold * h.queue.Capacity()
	backlog := h.queue.Backlog()
	if backlog <= thr {
		return
	}
	if !h.above {
		h.above = true
		h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.CrossUp,
			Node: topology.NodeID(h.id), Peer: -1})
		h.disco.OnUsageCrossing(true)
	}
	if h.crossing != nil {
		h.crossing.Stop()
	}
	wall := h.cluster.toWall(backlog - thr)
	h.crossing = time.AfterFunc(wall, func() {
		h.post(func() {
			h.drain()
			if h.above && h.usage() <= h.cluster.cfg.Protocol.Threshold {
				h.above = false
				h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.CrossDown,
					Node: topology.NodeID(h.id), Peer: -1})
				h.disco.OnUsageCrossing(false)
			}
		})
	})
}

// tryMigrate performs one speculative-migration attempt: pick the best
// candidate, ship the component state with the admission request, and
// resolve on the response (or a timeout, since the transport may be
// lossy). The versioned naming service provides at-most-once placement:
// a destination moves the naming entry when it accepts, so a retry after
// a *lost grant* observes the move and counts the component placed
// instead of launching a duplicate, and a destination rejects any
// request whose observed version is stale.
func (h *Host) tryMigrate(c Component, attempt int) {
	self := topology.NodeID(h.id)
	entry, registered := h.cluster.naming.Get(c.ID)
	if registered && entry.Host != naming.HostID(h.id) {
		// A previous attempt's grant was delivered to the destination but
		// its response never reached us: the component is already placed.
		h.Stats.MigratedOut.Add(1)
		h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.MigrateOK,
			Node: self, Peer: topology.NodeID(entry.Host), Size: c.Cost, Info: "late-grant"})
		h.cluster.outcome(c.Arrive, true)
		return
	}
	if !registered {
		// Defensive: the component vanished (already rejected elsewhere).
		h.Stats.RejectedRun.Add(1)
		h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.Reject,
			Node: self, Peer: -1, Size: c.Cost, Info: "vanished"})
		h.cluster.outcome(c.Arrive, false)
		return
	}
	var target = -1
	for _, cand := range h.disco.Candidates(c.Cost) {
		if int(cand.ID) != h.id {
			target = int(cand.ID)
			break
		}
	}
	if target < 0 {
		h.Stats.RejectedRun.Add(1)
		h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.Reject,
			Node: self, Peer: -1, Size: c.Cost, Info: "no-candidate"})
		h.deregisterIfLocal(c.ID)
		h.cluster.outcome(c.Arrive, false)
		return
	}
	h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.MigrateTry,
		Node: self, Peer: topology.NodeID(target), Size: c.Cost})
	h.cluster.controlMsgs.Add(1)
	h.admSeq++
	seq := h.admSeq
	req := &transport.Admission{
		Request:   true,
		Seq:       seq,
		Component: c.ID,
		Cost:      c.Cost,
		Deadline:  c.Deadline,
		Version:   entry.Version,
	}
	pm := &pendingMigration{comp: c, target: target, attempt: attempt}
	h.pending[seq] = pm
	// Negotiation timeout: with a lossy transport the response may never
	// come; a lost negotiation counts as a rejected task (one try only).
	pm.timer = time.AfterFunc(h.cluster.cfg.NegotiationTimeout, func() {
		h.post(func() {
			if _, live := h.pending[seq]; live {
				delete(h.pending, seq)
				h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.MigrateFail,
					Node: self, Peer: topology.NodeID(target), Size: c.Cost, Info: "timeout"})
				h.disco.OnMigrationOutcome(topology.NodeID(target), c.Cost, false)
				if attempt < h.maxTries() && !h.killed {
					h.tryMigrate(c, attempt+1)
					return
				}
				h.Stats.RejectedRun.Add(1)
				h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.Reject,
					Node: self, Peer: -1, Size: c.Cost, Info: "tries-exhausted"})
				h.deregisterIfLocal(c.ID)
				h.cluster.outcome(c.Arrive, false)
			}
		})
	})
	h.ep.Send(target, transport.Packet{Adm: req})
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
		h.disco.Deliver(*p.Disc)
	case p.Adm != nil && p.Adm.Request:
		h.handleAdmissionRequest(p.From, *p.Adm)
	case p.Adm != nil:
		h.handleAdmissionResponse(*p.Adm)
	}
}

// handleAdmissionRequest is the destination side of speculative
// migration: the component state arrived with the request, so admission
// is an enqueue (utilization test via queue headroom) and the response
// completes the move. The naming version check makes placement
// at-most-once: a request carrying a stale version lost a race with
// another placement of the same component and is denied, so a duplicate
// request never reaches acceptLocal.
func (h *Host) handleAdmissionRequest(from int, adm transport.Admission) {
	if e, ok := h.cluster.naming.Get(adm.Component); !ok || e.Version != adm.Version {
		rsp := adm
		rsp.Request = false
		rsp.Granted = false
		h.ep.Send(from, transport.Packet{Adm: &rsp})
		return
	}
	c := Component{ID: adm.Component, Cost: adm.Cost, Deadline: adm.Deadline}
	granted := h.acceptLocal(c)
	if granted {
		h.Stats.MigratedIn.Add(1)
	}
	rsp := adm
	rsp.Request = false
	rsp.Granted = granted
	h.ep.Send(from, transport.Packet{Adm: &rsp})
}

func (h *Host) handleAdmissionResponse(adm transport.Admission) {
	pm, ok := h.pending[adm.Seq]
	if !ok {
		return // late response after timeout: already accounted
	}
	delete(h.pending, adm.Seq)
	pm.timer.Stop()
	self := topology.NodeID(h.id)
	h.disco.OnMigrationOutcome(topology.NodeID(pm.target), pm.comp.Cost, adm.Granted)
	if adm.Granted {
		h.Stats.MigratedOut.Add(1)
		h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.MigrateOK,
			Node: self, Peer: topology.NodeID(pm.target), Size: pm.comp.Cost})
		h.cluster.outcome(pm.comp.Arrive, true)
		return
	}
	h.Stats.MigrateFail.Add(1)
	h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.MigrateFail,
		Node: self, Peer: topology.NodeID(pm.target), Size: pm.comp.Cost})
	// Section 3: try the next node in the list (the failed candidate was
	// just evicted by OnMigrationOutcome), up to the configured bound.
	if pm.attempt < h.maxTries() && !h.killed {
		h.tryMigrate(pm.comp, pm.attempt+1)
		return
	}
	h.Stats.RejectedRun.Add(1)
	h.cluster.emit(trace.Event{At: sim.Time(h.now()), Kind: trace.Reject,
		Node: self, Peer: -1, Size: pm.comp.Cost, Info: "tries-exhausted"})
	h.deregisterIfLocal(pm.comp.ID)
	h.cluster.outcome(pm.comp.Arrive, false)
}

func (h *Host) maxTries() int {
	if h.cluster.cfg.MaxTries <= 0 {
		return 1
	}
	return h.cluster.cfg.MaxTries
}

// deregisterIfLocal removes a rejected component's naming entry, but only
// while it still points here — a late grant may already have moved it,
// and that newer location must win.
func (h *Host) deregisterIfLocal(id uint64) {
	if e, ok := h.cluster.naming.Get(id); ok && e.Host == naming.HostID(h.id) {
		h.cluster.naming.Deregister(id)
	}
}

// Usage returns Backlog/Capacity. Actor-loop confined: read it only
// from this host's actor context (an observer callback this host
// emitted, or Inspect).
func (h *Host) Usage() float64 { return h.usage() }

// Headroom returns Capacity − Backlog (actor-loop confined, see Usage).
func (h *Host) Headroom() float64 { return h.queue.Capacity() - h.queue.Backlog() }

// Capacity returns the host's queue capacity (immutable after start).
func (h *Host) Capacity() float64 { return h.queue.Capacity() }

// Discovery returns the host's protocol instance, which is replaced on
// Revive. Actor-loop confined, see Usage.
func (h *Host) Discovery() protocol.Discovery { return h.disco }

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
	done := make(chan struct{})
	h.post(func() {
		defer close(done)
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
		h.afterAccept()
		h.armDrainTimer()
	})
	select {
	case <-done:
	case <-h.done:
	}
	return accepted
}

// Inspect runs fn on the host's actor loop and waits for it — the safe
// way for tests and examples to observe actor-confined state.
func (h *Host) Inspect(fn func(h *Host)) {
	done := make(chan struct{})
	h.post(func() {
		h.drain()
		fn(h)
		close(done)
	})
	select {
	case <-done:
	case <-h.done:
	}
}

// liveEnv adapts the actor host to protocol.Env, letting the simulator's
// REALTOR implementation run unmodified on the live runtime.
type liveEnv struct {
	host *Host
}

var _ protocol.Env = (*liveEnv)(nil)

func (e *liveEnv) Self() topology.NodeID { return topology.NodeID(e.host.id) }
func (e *liveEnv) Now() sim.Time         { return sim.Time(e.host.now()) }
func (e *liveEnv) Usage() float64        { return e.host.usage() }
func (e *liveEnv) Headroom() float64 {
	return e.host.queue.Capacity() - e.host.queue.Backlog()
}
func (e *liveEnv) Capacity() float64 { return e.host.queue.Capacity() }

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
	t := &liveTimer{}
	t.timer = time.AfterFunc(e.host.cluster.toWall(float64(d)), func() {
		e.host.post(func() {
			if !t.stopped.Load() {
				fn()
			}
		})
	})
	return t
}

type liveTimer struct {
	timer   *time.Timer
	stopped atomic.Bool
}

func (t *liveTimer) Stop() {
	t.stopped.Store(true)
	t.timer.Stop()
}

// String renders a short host status line.
func (h *Host) String() string {
	return fmt.Sprintf("host %d: backlog=%.1f jobs=%d", h.id, h.queue.Backlog(), h.queue.Len())
}
