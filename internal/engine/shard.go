// Conservative-parallel execution: the mesh is split into contiguous
// node-ID bands ("shards"), each with its own event queue and worker.
// A coordinator alternates phases — every shard fires the events whose
// canonical key lies strictly below a shared horizon — with barriers
// that exchange cross-shard messages and replay buffered observations
// in canonical order. The horizon is the conservative lookahead bound:
// no cross-shard message can be delivered sooner than
// HopDelay × MinCrossShardDist after it was sent, so events below
// min-pending + Δ cannot be influenced by any event another shard has
// yet to fire. Because every event carries a creator-assigned canonical
// key (see sim.EventKey), the set and order of events each shard fires
// is a pure function of the scenario — never of worker interleaving —
// which is what makes results byte-identical at any shard count.
// DESIGN.md §10 gives the full argument.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"

	"realtor/internal/place"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// shardCtx is the per-shard execution context: the shard's scheduler,
// its outbound cross-shard mail, its ordered-emission buffers, and its
// runner pools. During a phase it is
// touched only by its own worker; between phases only by the
// coordinator — so nothing in it needs a lock.
type shardCtx struct {
	e     *Engine
	idx   int32
	sched *sim.Scheduler

	// mail holds events created this phase for other shards; the
	// coordinator moves them onto the destination queues at the barrier.
	// Heap order depends only on the canonical key, so the flush order
	// across shards is irrelevant.
	mail []mailEntry

	// emits buffers observation callbacks for canonical-order replay at
	// the barrier (outcomes only when the engine emits hooks inline).
	emits   []emitRec
	emitIdx uint64

	// runner pools: acquired by events executing in this shard,
	// released into the pool of whichever shard the runner fires in.
	freeWaves      *wave
	freeMigrations *migration
	freeArrivals   *arrivalEv

	// send-side scratch (nodeEnv.admit/launch, byRing): one send is
	// assembled at a time, so the executing shard owns one of each.
	sendBuf        []waveMember
	ringOf, ringAt []int32

	// While a wave fires, msgKey is the canonical key of the message
	// being delivered; emissions are stamped with it, not with the key
	// the wave happens to be queued under.
	inWave bool
	msgKey sim.EventKey

	// delivered counts messages handed to a live destination's protocol.
	// Diagnostic only: nothing on the deterministic path reads it.
	delivered uint64

	active bool
	in     chan sim.EventKey
	done   chan struct{}
	// panicked holds what a handler panicked with on this shard's
	// worker, for runPhase to re-raise on the caller's goroutine.
	panicked *workerPanic
}

// workerPanic carries a handler's panic from a shard worker to the
// caller, with the worker's stack: the re-raise on the caller's
// goroutine would otherwise print only the coordinator's stack, not
// the handler's.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v\n\nshard worker stack:\n%s", p.value, p.stack)
}

// mailEntry is one cross-shard event hand-off: the destination shard,
// the firing time, the creator-assigned canonical key, and the runner.
type mailEntry struct {
	dest int32
	when sim.Time
	src  int32
	seq  uint64
	r    sim.Runner
}

// emitRec is one buffered callback — a trace event, an observer call or
// a task outcome — stamped with the canonical key of the event that
// emitted it and a per-shard monotone index for ordering multiple
// emissions of one event.
type emitRec struct {
	key      sim.EventKey
	idx      uint64
	kind     uint8
	ev       trace.Event     // emitTrace
	at       sim.Time        // observer kinds, emitOutcome
	node     topology.NodeID // sender
	peer     topology.NodeID // recipient
	m        protocol.Message
	reason   string        // emitDropObs
	task     workload.Task // emitOutcome
	admitted bool
}

const (
	emitTrace uint8 = iota
	emitSendObs
	emitDeliverObs
	emitDropObs
	emitOutcome
)

// emitKey is the canonical key buffered emissions are stamped with: that
// of the event this shard is executing, which inside a wave is the
// message being delivered.
func (c *shardCtx) emitKey() sim.EventKey {
	if c.inWave {
		return c.msgKey
	}
	return c.sched.LastFiredKey()
}

// ctxOf returns the execution context owning node id.
func (e *Engine) ctxOf(id topology.NodeID) *shardCtx { return e.ctxs[e.shardOf[id]] }

// schedule places a keyed event onto the shard owning dest: directly
// when that is the executing shard (or the engine is unsharded), through
// the phase mailbox otherwise. Cross-shard events return the zero handle
// — they cannot be cancelled, and no caller needs to (waves and
// migrations are fire-and-forget; timers and crossings never cross).
func (e *Engine) schedule(c *shardCtx, dest topology.NodeID, when sim.Time,
	src int32, seq uint64, r sim.Runner) sim.Event {
	dc := e.ctxs[e.shardOf[dest]]
	if dc == c {
		return c.sched.AtKeyed(when, src, seq, r)
	}
	c.mail = append(c.mail, mailEntry{dest: dc.idx, when: when, src: src, seq: seq, r: r})
	return sim.Event{}
}

// direct is the one gate every hook passes. An emission from context c
// is made at once when the caller's hook runs inline (one shard, or
// cfg.InlineHooks promising a concurrency-safe consumer) and in a
// global-event context — c nil or inGlobal set: coordinator at a
// barrier, workers idle — where it is in canonical position because
// buffers are flushed before any global event fires. Otherwise the
// caller buffers a record for ordered replay at the barrier.
func (e *Engine) direct(c *shardCtx, inline bool) bool {
	return inline || c == nil || e.inGlobal
}

// buffer appends a record of the given kind, stamped with the executing
// event's canonical key, and returns it for the caller to fill in.
func (c *shardCtx) buffer(kind uint8) *emitRec {
	c.emits = append(c.emits, emitRec{key: c.emitKey(), idx: c.emitIdx, kind: kind})
	c.emitIdx++
	return &c.emits[len(c.emits)-1]
}

func (e *Engine) traceCtx(c *shardCtx, ev trace.Event) {
	if e.cfg.Trace == nil {
		return
	}
	if e.direct(c, e.inline) {
		e.cfg.Trace.Record(ev)
		return
	}
	c.buffer(emitTrace).ev = ev
}

// observe hands the observer one message event: kind says whether the
// copy from → to was sent, delivered (from is then not reported) or
// dropped for reason.
func (e *Engine) observe(c *shardCtx, kind uint8, at sim.Time, from, to topology.NodeID,
	m *protocol.Message, reason string) {
	if e.cfg.Observer == nil {
		return
	}
	if !e.direct(c, e.inline) {
		r := c.buffer(kind)
		r.at, r.node, r.peer, r.m, r.reason = at, from, to, *m, reason
		return
	}
	switch kind {
	case emitSendObs:
		e.cfg.Observer.OnSend(at, from, to, *m)
	case emitDeliverObs:
		e.cfg.Observer.OnDeliver(at, to, *m)
	case emitDropObs:
		e.cfg.Observer.OnDrop(at, from, to, *m, reason)
	}
}

// outcomeCtx reports a task's final fate, decided at instant at.
// Sharded runs always buffer — OnOutcome closures (experiment bucketing)
// are neither locked nor order-tolerant — and replay in canonical order
// at the barrier.
func (e *Engine) outcomeCtx(c *shardCtx, t workload.Task, at sim.Time, admitted bool) {
	if e.cfg.OnOutcome == nil {
		return
	}
	if e.direct(c, e.shards == 1) {
		e.cfg.OnOutcome(t, at, admitted)
		return
	}
	r := c.buffer(emitOutcome)
	r.task, r.at, r.admitted = t, at, admitted
}

func (e *Engine) startWorkers() {
	for _, c := range e.ctxs {
		c.in = make(chan sim.EventKey, 1)
		c.done = make(chan struct{}, 1)
		go func(c *shardCtx) {
			for bound := range c.in {
				c.runBelow(bound)
				c.done <- struct{}{}
			}
		}(c)
	}
}

// runBelow is one phase on a shard worker. A panic in a handler is kept
// on the shard, not let loose on the worker's goroutine, where nothing
// could recover it and it would end the process.
func (c *shardCtx) runBelow(bound sim.EventKey) {
	defer func() {
		if v := recover(); v != nil {
			c.panicked = &workerPanic{value: v, stack: debug.Stack()}
		}
	}()
	c.sched.RunBelow(bound)
}

func (e *Engine) stopWorkers() {
	for _, c := range e.ctxs {
		close(c.in)
	}
}

// coordinate runs the conservative phase loop until every queue and the
// arrival stream are exhausted up to `until`, leaving all clocks at
// exactly `until` (mirroring Scheduler.RunUntil, which fires events with
// timestamps ≤ end). Cancellation and progress land only at barriers —
// between phases every worker is idle and per-node state quiescent, so
// a checkpoint there never races a firing event and never perturbs the
// canonical event order. It reports false when the context cancelled
// the loop at a barrier; the clocks then rest wherever the last phase
// left them and no further events fire.
func (e *Engine) coordinate(ctx context.Context, until sim.Time) bool {
	// Checkpoints (progress + cancellation polls) ride the barrier the
	// phase loop already takes; the stride only throttles how often —
	// barriers can be far more frequent than anyone wants callbacks.
	step := e.checkpointEvery()
	nextCk := e.sched.Now() + step
	// endKey admits every real event at `until` (real namespaces are all
	// < MaxInt32), exactly like RunUntil's inclusive boundary.
	endKey := sim.EventKey{When: until, Src: math.MaxInt32, Seq: math.MaxUint64}
	for {
		if e.sched.Now() >= nextCk {
			if !e.checkpoint(ctx, e.sched.Now()) {
				return false
			}
			for nextCk <= e.sched.Now() {
				nextCk += step
			}
		}
		// Earliest pending work anywhere: shard queues, the global
		// (external-event) queue, and the not-yet-pulled arrival stream.
		var tmin sim.Time
		have := false
		for _, c := range e.ctxs {
			if k, ok := c.sched.MinKey(); ok && (!have || k.When < tmin) {
				tmin, have = k.When, true
			}
		}
		gk, gok := e.sched.MinKey()
		if gok && (!have || gk.When < tmin) {
			tmin, have = gk.When, true
		}
		if e.pullOK && e.pull.Arrive < e.cfg.Duration && (!have || e.pull.Arrive < tmin) {
			tmin, have = e.pull.Arrive, true
		}
		if !have || tmin > until {
			e.advanceAll(until)
			return e.checkpoint(ctx, until)
		}

		// The phase horizon: min-pending + lookahead, capped by the next
		// global event (which may mutate shared state — kills, link cuts —
		// and therefore runs alone at a barrier) and by the window end.
		bound := sim.EventKey{When: tmin + e.delta, Src: math.MinInt32}
		if gok && gk.Less(bound) {
			bound = gk
		}
		if endKey.Less(bound) {
			bound = endKey
		}
		globalNext := gok && gk == bound

		e.pullArrivals(bound)

		if e.anyShardBelow(bound) {
			e.runPhase(bound)
			e.advanceAll(sim.Time(math.Min(float64(bound.When), float64(until))))
			e.flushMail()
			e.flushBuffers()
			continue
		}
		if globalNext {
			// Exactly one global event per barrier: its handler may touch
			// any shard's state, so all clocks sync to its instant first.
			// Hooks it triggers emit directly (inGlobal), and any node
			// activity it causes — an Inject's threshold flood, say —
			// routes cross-shard events through the home shard's mailbox,
			// which must drain before the next phase advances clocks past
			// the entries.
			e.advanceAll(gk.When)
			e.inGlobal = true
			e.sched.Step()
			e.inGlobal = false
			e.flushMail()
			continue
		}
		// No event below the horizon anywhere (only reachable through
		// float edge cases): let the clocks catch up and retry.
		e.advanceAll(sim.Time(math.Min(float64(bound.When), float64(until))))
	}
}

// pullArrivals moves workload arrivals whose canonical key lies below
// the phase bound onto their shard queues, resolving dead-node rerouting
// now — between phases the alive set is stable (kills and revives are
// global events, which bound every phase), so the reroute draw sees
// exactly the state the single-shard kernel would at fire time, in the
// same arrival order.
func (e *Engine) pullArrivals(bound sim.EventKey) {
	for e.pullOK && e.pull.Arrive < e.cfg.Duration {
		key := sim.EventKey{When: e.pull.Arrive, Src: srcArrival, Seq: e.arrSeq}
		if !key.Less(bound) {
			return
		}
		t := e.pull
		e.pull, e.pullOK = e.pullSrc.Next()
		exec, refuse := e.resolveArrival(t)
		c := e.ctxOf(exec)
		a := c.freeArrivals
		if a == nil {
			a = &arrivalEv{e: e}
		} else {
			c.freeArrivals = a.next
		}
		a.task, a.exec, a.refuse = t, exec, refuse
		c.sched.AtKeyed(t.Arrive, srcArrival, e.arrSeq, a)
		e.arrSeq++
	}
}

func (e *Engine) anyShardBelow(bound sim.EventKey) bool {
	for _, c := range e.ctxs {
		if k, ok := c.sched.MinKey(); ok && k.Less(bound) {
			return true
		}
	}
	return false
}

// runPhase fires every shard event below bound. A phase with one active
// shard runs inline on the coordinator — waking a worker for it would
// cost more than the work.
func (e *Engine) runPhase(bound sim.EventKey) {
	active := 0
	var solo *shardCtx
	for _, c := range e.ctxs {
		k, ok := c.sched.MinKey()
		c.active = ok && k.Less(bound)
		if c.active {
			active++
			solo = c
		}
	}
	if active == 1 {
		solo.sched.RunBelow(bound)
		return
	}
	for _, c := range e.ctxs {
		if c.active {
			c.in <- bound
		}
	}
	for _, c := range e.ctxs {
		if c.active {
			<-c.done
		}
	}
	// Every worker is idle again: re-raise the lowest shard's panic on
	// the caller's goroutine, where RunCtx's deferred stopWorkers ends
	// the workers and the caller may recover it.
	for _, c := range e.ctxs {
		if c.panicked != nil {
			panic(c.panicked)
		}
	}
}

// advanceAll moves every clock — shard and global — to t. Safe by the
// phase invariant: no queue holds an event strictly earlier than t.
func (e *Engine) advanceAll(t sim.Time) {
	e.sched.AdvanceTo(t)
	for _, c := range e.ctxs {
		c.sched.AdvanceTo(t)
	}
}

// flushMail moves this phase's cross-shard events onto their destination
// queues. Every entry's canonical key was assigned by its creator, so
// heap order — and with it execution order — is independent of the
// flush sequence.
func (e *Engine) flushMail() {
	for _, c := range e.ctxs {
		for i := range c.mail {
			m := &c.mail[i]
			e.ctxs[m.dest].sched.AtKeyed(m.when, m.src, m.seq, m.r)
			m.r = nil
		}
		c.mail = c.mail[:0]
	}
}

// flushBuffers replays buffered observations and outcomes in canonical
// (emitting-event key, emission index) order — the exact sequence the
// single-shard kernel would have produced inline.
func (e *Engine) flushBuffers() {
	s := e.emitScratch[:0]
	for _, c := range e.ctxs {
		s = append(s, c.emits...)
		c.emits = c.emits[:0]
	}
	if len(s) == 0 {
		return
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].key != s[j].key {
			return s[i].key.Less(s[j].key)
		}
		return s[i].idx < s[j].idx
	})
	for i := range s {
		r := &s[i] // re-emitted from the coordinator's context: nil
		switch r.kind {
		case emitTrace:
			e.traceCtx(nil, r.ev)
		case emitOutcome:
			e.outcomeCtx(nil, r.task, r.at, r.admitted)
		default:
			e.observe(nil, r.kind, r.at, r.node, r.peer, &r.m, r.reason)
		}
		*r = emitRec{} // drop Message view references
	}
	e.emitScratch = s[:0]
}

// arrivalEv is a pooled runner carrying one pre-pulled, pre-resolved
// workload arrival (sharded runs only; the single-shard kernel keeps the
// one reusable pull-as-you-go arrival runner).
type arrivalEv struct {
	e      *Engine
	task   workload.Task
	exec   topology.NodeID // node the event executes on (t.Node for rejects)
	refuse string          // why the task cannot run at all, or ""
	next   *arrivalEv
}

// Fire implements sim.Runner.
func (a *arrivalEv) Fire(now sim.Time) {
	e, t, exec, refuse := a.e, a.task, a.exec, a.refuse
	c := e.ctxOf(exec)
	a.task = workload.Task{}
	a.next = c.freeArrivals
	c.freeArrivals = a
	e.machines[exec].Arrive(now, place.Task{Task: t}, refuse)
}
