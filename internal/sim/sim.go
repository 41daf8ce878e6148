// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a priority queue of timestamped events plus a virtual
// clock. Events scheduled at the same instant fire in the order they were
// scheduled (FIFO tie-breaking), which keeps runs fully reproducible for a
// fixed seed. All protocol simulations in this repository run on top of
// this kernel; nothing in it is specific to REALTOR.
//
// # Implementation notes (hot path)
//
// The queue is an index-addressed 4-ary min-heap over a flat []heapItem
// value slice — no per-event box, no interface{} conversions, no
// container/heap indirection. Event bookkeeping (handler, generation,
// heap position) lives in a pooled []eventRec slab recycled through a
// free list, so a long run performs O(1) amortized allocations no matter
// how many events it schedules: once the heap and pool reach the run's
// high-water mark, scheduling is allocation-free.
//
// Event handles returned by At/After are small values carrying a pool
// slot and a generation number. A slot's generation is bumped every time
// the slot is released (fired or cancelled), so a stale handle held by a
// caller can never cancel an unrelated event that happens to reuse the
// slot: Cancel checks the generation first and no-ops on mismatch.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// Handler is a callback fired when an event's time is reached.
type Handler func(now Time)

// Runner is the allocation-free alternative to Handler: callers that
// schedule in a hot loop can implement Fire on a pooled/reused object and
// pass it to AtRunner/AfterRunner, avoiding a fresh closure per event.
// (Scheduling a Handler costs nothing extra either — func values are
// pointer-shaped, so boxing one into this interface does not allocate —
// but the closure itself is a per-event allocation at the call site.)
type Runner interface {
	Fire(now Time)
}

// runnerFunc adapts a Handler closure to the internal Runner
// representation without allocating.
type runnerFunc Handler

func (f runnerFunc) Fire(now Time) { f(now) }

// Event is a handle to a scheduled callback, returned by Scheduler.At and
// Scheduler.After so callers can cancel it before it fires. It is a small
// value (pool slot + generation); copying it is cheap and the zero value
// is a valid "no event" handle for which Cancel is a no-op.
type Event struct {
	slot int32  // 1-based pool index; 0 = zero value / no event
	gen  uint32 // must match the slot's current generation to be live
}

// SrcExternal is the tie-break namespace of events scheduled through the
// plain At/After API. It sorts before every caller-keyed namespace, so
// external control events (fault injection, study instrumentation) fire
// before same-instant keyed simulation events — a fixed, documented
// order instead of an accident of scheduling sequence.
const SrcExternal int32 = -2

// EventKey is the canonical total order on events: (when, src, seq),
// compared lexicographically. src is a tie-break namespace — the entity
// that created the event — and seq a counter that is monotone within
// that namespace, so the order of two simultaneous events depends only
// on who scheduled them and that creator's own logical progress, never
// on how creators interleaved. That property is what lets the sharded
// kernel replay a run identically at any worker count.
type EventKey struct {
	When Time
	Src  int32
	Seq  uint64
}

// Less reports whether k orders strictly before o.
func (k EventKey) Less(o EventKey) bool {
	if k.When != o.When {
		return k.When < o.When
	}
	if k.Src != o.Src {
		return k.Src < o.Src
	}
	return k.Seq < o.Seq
}

// heapItem is one entry of the 4-ary min-heap, ordered by (when, src,
// seq). Keeping the ordering keys inline in the heap slice (instead of
// chasing a pointer per comparison) is what makes sift operations
// cache-friendly.
type heapItem struct {
	when Time
	seq  uint64 // monotone within src; FIFO tie-break for equal (when, src)
	src  int32  // tie-break namespace (SrcExternal for plain At/After)
	slot int32  // 0-based pool index of the owning eventRec
}

// eventRec is the pooled per-event record. r is cleared on release so
// the kernel never pins a dead closure or runner.
type eventRec struct {
	r    Runner
	gen  uint32
	heap int32 // index into Scheduler.heap, -1 when not queued
}

// Scheduler is the simulation executive. The zero value is not ready to
// use; create one with New.
type Scheduler struct {
	now   Time
	heap  []heapItem
	pool  []eventRec
	free  []int32 // released pool slots available for reuse
	seq   uint64
	fired uint64

	lastKey   EventKey // key of the most recently fired event
	scheduled uint64
	reused    uint64 // schedules served from the free list (pool reuse)
}

// New returns an empty scheduler with the clock at zero.
func New() *Scheduler {
	return &Scheduler{}
}

// NewScheduler returns an empty scheduler pre-sized for roughly capacity
// concurrently pending events. The hint removes the append-driven slice
// regrowth of the heap and event pool during a run's ramp-up (or a
// benchmark's steady state); the scheduler still grows past the hint on
// demand.
func NewScheduler(capacity int) *Scheduler {
	if capacity <= 0 {
		return &Scheduler{}
	}
	return &Scheduler{
		heap: make([]heapItem, 0, capacity),
		pool: make([]eventRec, 0, capacity),
		free: make([]int32, 0, capacity),
	}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far, useful as a cheap
// progress/effort metric in benchmarks.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Stopped reports whether the event handle no longer refers to a pending
// event: it was cancelled, already fired, its slot was recycled, or it is
// the zero handle.
func (s *Scheduler) Stopped(e Event) bool {
	if e.slot <= 0 || int(e.slot) > len(s.pool) {
		return true
	}
	rec := &s.pool[e.slot-1]
	return rec.gen != e.gen || rec.heap < 0
}

// When reports the simulated time at which the pending event fires. The
// second result is false if the event already fired or was cancelled.
func (s *Scheduler) When(e Event) (Time, bool) {
	if s.Stopped(e) {
		return 0, false
	}
	return s.heap[s.pool[e.slot-1].heap].when, true
}

// less orders heap items by (when, src, seq).
func less(a, b heapItem) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// siftUp restores the heap invariant from position i toward the root,
// keeping pool heap-indices in sync.
func (s *Scheduler) siftUp(i int) {
	it := s.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(it, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.pool[s.heap[i].slot].heap = int32(i)
		i = p
	}
	s.heap[i] = it
	s.pool[it.slot].heap = int32(i)
}

// siftDown restores the heap invariant from position i toward the leaves.
func (s *Scheduler) siftDown(i int) {
	n := len(s.heap)
	it := s.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		if !less(s.heap[best], it) {
			break
		}
		s.heap[i] = s.heap[best]
		s.pool[s.heap[i].slot].heap = int32(i)
		i = best
	}
	s.heap[i] = it
	s.pool[it.slot].heap = int32(i)
}

// removeAt deletes the heap entry at index i (which must be valid),
// preserving the invariant. The owning pool slot is NOT released here.
func (s *Scheduler) removeAt(i int) {
	n := len(s.heap) - 1
	if i != n {
		s.heap[i] = s.heap[n]
		s.heap = s.heap[:n]
		// The moved item may need to travel either direction.
		s.siftDown(i)
		s.siftUp(i)
	} else {
		s.heap = s.heap[:n]
	}
}

// acquire returns a pool slot for a new event, reusing a released slot
// when one is available. Fresh slots start at generation 1 so the zero
// Event handle (gen 0) can never match a live record.
func (s *Scheduler) acquire(r Runner) int32 {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.reused++
	} else {
		s.pool = append(s.pool, eventRec{gen: 1})
		slot = int32(len(s.pool) - 1)
	}
	s.pool[slot].r = r
	return slot
}

// release retires a pool slot: the generation bump invalidates every
// outstanding handle to it before the slot is recycled.
func (s *Scheduler) release(slot int32) {
	rec := &s.pool[slot]
	rec.r = nil
	rec.gen++
	rec.heap = -1
	s.free = append(s.free, slot)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it is always a programming error and silently reordering events
// would destroy reproducibility.
func (s *Scheduler) At(t Time, fn Handler) Event {
	if fn == nil {
		panic("sim: nil handler")
	}
	return s.AtRunner(t, runnerFunc(fn))
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (s *Scheduler) After(d Time, fn Handler) Event {
	return s.At(s.now+d, fn)
}

// AtRunner schedules r.Fire to run at absolute time t. It is the
// zero-allocation form of At: pass a pooled or long-lived Runner instead
// of a fresh closure. The same past/NaN rules apply. Events scheduled
// this way live in the SrcExternal namespace with a scheduler-assigned
// sequence, so among themselves they keep FIFO tie-breaking.
func (s *Scheduler) AtRunner(t Time, r Runner) Event {
	ev := s.AtKeyed(t, SrcExternal, s.seq, r)
	s.seq++
	return ev
}

// AtKeyed schedules r.Fire at absolute time t under the caller-supplied
// canonical key (src, seq). The caller owns the namespace discipline:
// seq must be monotone within src, and (t, src, seq) must be unique, or
// same-instant ordering degenerates back to insertion order. This is
// the scheduling form the sharded engine uses — keys assigned by the
// creating node make the event order independent of shard interleaving.
func (s *Scheduler) AtKeyed(t Time, src int32, seq uint64, r Runner) Event {
	if r == nil {
		panic("sim: nil runner")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(float64(t)) {
		panic("sim: scheduling at NaN")
	}
	slot := s.acquire(r)
	s.heap = append(s.heap, heapItem{when: t, src: src, seq: seq, slot: slot})
	s.scheduled++
	s.siftUp(len(s.heap) - 1)
	return Event{slot: slot + 1, gen: s.pool[slot].gen}
}

// AfterRunner schedules r.Fire to run d seconds from now.
func (s *Scheduler) AfterRunner(d Time, r Runner) Event {
	return s.AtRunner(s.now+d, r)
}

// Cancel removes a pending event. Cancelling a fired, already-cancelled,
// or zero-handle event is a no-op (the generation check makes this safe
// even after the event's pool slot has been recycled), so callers may
// cancel unconditionally.
func (s *Scheduler) Cancel(e Event) {
	if e.slot <= 0 || int(e.slot) > len(s.pool) {
		return
	}
	slot := e.slot - 1
	rec := &s.pool[slot]
	if rec.gen != e.gen || rec.heap < 0 {
		return
	}
	s.removeAt(int(rec.heap))
	s.release(slot)
}

// Step fires the single earliest event. It reports false when the queue is
// empty.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	it := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.pool[s.heap[0].slot].heap = 0
		s.siftDown(0)
	}
	r := s.pool[it.slot].r
	// Release before invoking so a handler that reschedules immediately
	// reuses the hottest slot; the generation bump keeps any handle the
	// caller still holds from cancelling the slot's next occupant.
	s.release(it.slot)
	s.now = it.when
	s.lastKey = EventKey{When: it.when, Src: it.src, Seq: it.seq}
	s.fired++
	r.Fire(s.now)
	return true
}

// MinKey returns the canonical key of the earliest pending event. The
// second result is false when the queue is empty.
func (s *Scheduler) MinKey() (EventKey, bool) {
	if len(s.heap) == 0 {
		return EventKey{}, false
	}
	it := s.heap[0]
	return EventKey{When: it.when, Src: it.src, Seq: it.seq}, true
}

// LastFiredKey returns the canonical key of the most recently fired
// event — the identity of the event currently executing when called
// from inside a handler. Zero until the first event fires.
func (s *Scheduler) LastFiredKey() EventKey { return s.lastKey }

// RunBelow fires every event whose key orders strictly before bound
// (including events those events schedule, as long as they stay below
// the bound) and returns how many fired. It does not advance the clock
// past the last fired event; pair with AdvanceTo at a phase barrier.
// This is the shard worker's inner loop: bound is the conservative
// lookahead horizon no cross-shard influence can penetrate.
func (s *Scheduler) RunBelow(bound EventKey) int {
	n := 0
	for len(s.heap) > 0 {
		it := s.heap[0]
		if !(EventKey{When: it.when, Src: it.src, Seq: it.seq}).Less(bound) {
			break
		}
		s.Step()
		n++
	}
	return n
}

// AdvanceTo moves the clock forward to t without firing anything. It
// panics if an event earlier than t is still pending (that would skip
// it) or if t is in the past — both are coordinator bugs, not states a
// run can recover from.
func (s *Scheduler) AdvanceTo(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, s.now))
	}
	if len(s.heap) > 0 && s.heap[0].when < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip event at %v", t, s.heap[0].when))
	}
	s.now = t
}

// KernelStats is a point-in-time snapshot of the scheduler's internal
// effort counters, the event-kernel analogue of topology.DistStats.
type KernelStats struct {
	Scheduled uint64 // events ever scheduled
	Fired     uint64 // events executed
	Reused    uint64 // schedules served by recycling a pooled event slot
	PoolSize  int    // high-water mark of the event pool
	Pending   int    // events still queued
}

// KernelStats returns the current counters. Reused/Scheduled is the
// pooled-event reuse ratio: near 1 once a run reaches steady state,
// meaning scheduling has stopped allocating.
func (s *Scheduler) KernelStats() KernelStats {
	return KernelStats{
		Scheduled: s.scheduled,
		Fired:     s.fired,
		Reused:    s.reused,
		PoolSize:  len(s.pool),
		Pending:   len(s.heap),
	}
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps ≤ end and then advances the
// clock to exactly end. Events scheduled after end remain pending.
func (s *Scheduler) RunUntil(end Time) {
	// Peeking s.heap[0] is safe: the root of the 4-ary heap is always the
	// earliest (when, seq) pair, exactly as with the old binary heap.
	for len(s.heap) > 0 && s.heap[0].when <= end {
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}

// Ticker repeatedly invokes a handler at a fixed period until stopped.
// It is the building block for periodic push advertisement.
type Ticker struct {
	s      *Scheduler
	period Time
	fn     Handler
	ev     Event
	stop   bool
}

// NewTicker schedules fn every period seconds, first firing one period
// from now. A non-positive period panics.
func (s *Scheduler) NewTicker(period Time, fn Handler) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.s.AfterRunner(t.period, t)
}

// Fire implements Runner; the Ticker reschedules itself so each tick
// costs zero allocations.
func (t *Ticker) Fire(now Time) {
	if t.stop {
		return
	}
	t.fn(now)
	if !t.stop {
		t.arm()
	}
}

// Stop cancels the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stop = true
	t.s.Cancel(t.ev)
}
