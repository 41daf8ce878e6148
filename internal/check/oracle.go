// Package check turns the REALTOR protocol invariants — stated
// informally in the paper and pinned in DESIGN.md §8 — into an
// executable runtime oracle. The Oracle attaches to a backend's trace
// and observer hooks and continuously asserts:
//
//	I1  HELP rate-limiting: consecutive HELP floods from one node are
//	    separated by strictly more than the live HELP_interval
//	    (Algorithm H, "at least HELP_interval apart") — on protocols
//	    that govern HELP by Algorithm H (not Pull-.9).
//	I2  Pledge propriety: a PLEDGE advertising positive headroom is sent
//	    only while the sender's usage is at or below the threshold, and
//	    the advertised headroom equals the sender's actual headroom; a
//	    retraction (headroom ≤ 0) is sent only at or above the threshold
//	    (Algorithm P's crossing rule).
//	I3  Soft-state freshness: a migration try targets only a node whose
//	    pledge-list entry exists and is younger than EntryTTL — no
//	    organizer uses a pledge older than its refresh window.
//	I4  State provenance / membership symmetry: every organizer-side
//	    pledge entry is justified by a delivered PLEDGE/ADVERT from that
//	    member (matching timestamp, headroom never above what was
//	    advertised, no entry once the member's last delivered push
//	    retracted), and every member-side membership is justified by a
//	    delivered HELP from that organizer within the membership window.
//	I5  Conservation: every arrived task resolves to exactly one of
//	    admit-local, migrate-ok, or reject — none lost, none duplicated.
//	    Messages conserve too: no run resolves more deliveries + drops
//	    than sends (duplication), and a partition drop is only claimed
//	    between genuinely disconnected nodes.
//	I6  Partition safety: no message send crosses a cut recorded by the
//	    topology trace (checked against an independent shadow graph).
//	I7  Multiplicative bounds: HELP_interval stays inside
//	    [HelpMin, HelpUpper] and changes only via the penalty/reward
//	    steps of Algorithm H (interval frozen while both counters are).
//	I8  Crossing alternation: cross-up and cross-down events on one node
//	    strictly alternate, resetting on node death.
//
// I9–I11 are retired (DESIGN.md §8.2) and their numbers are not
// reused: the next new invariant is I12.
//
// The oracle is backend-agnostic: it inspects the run exclusively
// through the World interface (node liveness and resource state plus
// per-node Discovery instances), so the same invariants assert against
// the discrete-event engine and the live Agile cluster. Both run on
// virtual time, where a protocol decision and the observation of it
// read the same instant, so every check is exact on both.
//
// The oracle is read-only: it inspects protocol state exclusively
// through the non-perturbing accessors of ProtocolState — Config,
// EachPledge and EachMembership (full walks), Pledge and Membership
// (point lookups), PledgeLog and MembershipLog (write logs),
// HelpIntervalState and HelpGoverned — so attaching it cannot change a
// run's trajectory.
//
// I4 is audited on write. Only two things can turn a justified entry
// into an unjustified one: the protocol writing the entry (noted in its
// table's protocol.WriteLog), and the oracle re-recording the last
// delivery's sender. Removal and expiry only drop entries, HELP spans
// only widen, and the audit instant only grows. So after an audit that
// found nothing, the next one checks just the entries the logs name
// plus that sender, and walks the whole table — reporting in table
// order, exactly as a walk on every delivery would — only on an
// instance's first audit, after a log overflow, after an audit that
// found something, or when a point check fails.
package check

import (
	"fmt"
	"sync"

	"realtor/internal/engine"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// eps absorbs float64 rounding in resource comparisons. Times and
// counters are compared exactly.
const eps = 1e-9

// World is the read-only window a backend exposes for the oracle to
// audit a run: how many nodes exist, which are alive, their live
// resource state, and each node's Discovery instance. The engine
// satisfies it via EngineWorld; the live Agile cluster via the harness's
// adapter. Graph returns the pristine pre-run topology for the shadow
// overlay behind I6, or nil when the backend has no link-level overlay
// (the live cluster's fabrics are fully connected) — I6 and the
// phantom-partition-drop check are then disabled.
//
// Concurrency contract: every method is invoked synchronously from
// within an oracle callback, i.e. on whichever goroutine emitted the
// event. Live backends must therefore only emit events for a node from
// a context where that node's state may be read (its actor loop).
type World interface {
	N() int
	Alive(id topology.NodeID) bool
	Usage(id topology.NodeID, now sim.Time) float64
	Headroom(id topology.NodeID, now sim.Time) float64
	Capacity(id topology.NodeID) float64
	Discovery(id topology.NodeID) protocol.Discovery
	Graph() *topology.Graph
}

// EngineWorld adapts a simulation engine to the World surface.
type EngineWorld struct {
	E *engine.Engine
}

var _ World = EngineWorld{}

// N implements World.
func (w EngineWorld) N() int { return w.E.Graph().N() }

// Alive implements World.
func (w EngineWorld) Alive(id topology.NodeID) bool { return w.E.Node(id).Alive() }

// Usage implements World.
func (w EngineWorld) Usage(id topology.NodeID, now sim.Time) float64 {
	return w.E.Node(id).Usage(now)
}

// Headroom implements World.
func (w EngineWorld) Headroom(id topology.NodeID, now sim.Time) float64 {
	return w.E.Node(id).Headroom(now)
}

// Capacity implements World.
func (w EngineWorld) Capacity(id topology.NodeID) float64 { return w.E.Node(id).Capacity() }

// Discovery implements World.
func (w EngineWorld) Discovery(id topology.NodeID) protocol.Discovery { return w.E.Discovery(id) }

// Graph implements World: the engine's configured (pre-mutation)
// topology seeds the shadow graph.
func (w EngineWorld) Graph() *topology.Graph { return w.E.Graph() }

// ProtocolState is the read-only window a Discovery implementation must
// expose for the oracle to audit it. core.Realtor — REALTOR and the
// four push/pull baselines alike — and the slow Reference implementation
// in this package satisfy it; protocol instances that don't (the
// overlays) get only the backend-level invariants.
// HelpGoverned reports whether the protocol rate-limits its HELP floods
// by Algorithm H; I1 applies only when it does.
//
// Pledge and Membership are point lookups with the same non-perturbing
// contract as the Each walks. PledgeLog and MembershipLog return the
// write logs of the two tables (every insert, refresh and re-rank of an
// entry is noted), or nil when the implementation keeps none — the
// oracle then audits that table by the full walk every time.
// Implementations are pointer types: the oracle keys its per-node audit
// cursor by instance identity.
type ProtocolState interface {
	Config() protocol.Config
	EachPledge(fn func(protocol.Candidate) bool)
	EachMembership(fn func(org topology.NodeID, expiry sim.Time) bool)
	Pledge(id topology.NodeID) (protocol.Candidate, bool)
	Membership(org topology.NodeID) (expiry sim.Time, ok bool)
	PledgeLog() *protocol.WriteLog
	MembershipLog() *protocol.WriteLog
	HelpIntervalState() (interval sim.Time, penalties, rewards uint64)
	HelpGoverned() bool
}

// Violation is one observed invariant breach.
type Violation struct {
	At        sim.Time        `json:"at"`
	Invariant string          `json:"invariant"`
	Node      topology.NodeID `json:"node"`
	Detail    string          `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.4f [%s] node %d: %s", float64(v.At), v.Invariant, v.Node, v.Detail)
}

// sendRec remembers the last availability push b→a. A non-positive
// headroom is a retraction: it justifies no entry.
type sendRec struct {
	at       sim.Time
	headroom float64
}

// span tracks the first and last time an event was observed for a pair.
type span struct {
	first, last sim.Time
}

// limits are the protocol parameters the oracle checks against, read
// from ProtocolState.Config once per instance.
type limits struct {
	threshold          float64
	entryTTL, membTTL  sim.Time
	helpMin, helpUpper sim.Time
}

// cursor is what the oracle remembers of one node's protocol instance
// between I4 audits.
type cursor struct {
	inst ProtocolState // the instance the rest describes; nil: none yet
	lim  limits

	// Per table: the write-log count at the last audit, and whether that
	// audit may be built on — false on an instance's first audit and
	// after one that found a violation.
	pledgeSeen, membSeen   uint64
	pledgeClean, membClean bool

	// sender is the member whose PLEDGE/ADVERT record changed since the
	// last pledge-list audit, or -1.
	sender topology.NodeID
}

// exhaustiveI4 makes every oracle built while it is set audit I4 by the
// full walk on every delivery (a test hook; see export_test.go).
var exhaustiveI4 bool

// Oracle asserts the protocol invariants against one run. Wire it in as
// both the backend's trace recorder and observer (see Hooks), run the
// backend, then call Finish and inspect Violations / Err.
type Oracle struct {
	w   World
	n   int
	max int

	violations []Violation
	dropped    int // violations beyond max

	// I1/I7 per-node Algorithm H observations.
	helpSeen []bool
	lastHelp []sim.Time
	ivSeen   []bool
	lastIv   []sim.Time
	lastPen  []uint64
	lastRew  []uint64

	// I8 crossing alternation.
	above []bool

	// I5 conservation: multiset of unresolved task sizes.
	pending  map[float64]int
	arrivals uint64
	resolved uint64

	// I5 message conservation: every OnDeliver/OnDrop(loss|dead) must be
	// preceded by an OnSend. Partition drops never had an OnSend and are
	// not in the ledger.
	msgSent      uint64
	msgDelivered uint64
	msgDropped   uint64 // loss + in-flight-death drops

	// I4 provenance. pledges[org][member] is the last delivered
	// PLEDGE/ADVERT member→org; helps[member][org] spans the HELP
	// deliveries org→member. Both rows of a node are forgotten when it
	// dies. cur[node] keys the audit on write to the node's instance.
	pledges    pairTable[sendRec]
	helps      pairTable[span]
	cur        []cursor
	exhaustive bool

	// I6 shadow topology, maintained solely from trace events and asked
	// only Reachable (component labels, never a distance row) — a
	// different algorithm than the engine routes by. Nil when the world
	// has no link-level overlay; I6 is then not checked.
	shadow *topology.Graph

	// I4-overlay / I5-overlay structured-overlay bookkeeping
	// (overlay.go).
	ov overlayAudit
}

// MaxViolations bounds how many violations an oracle retains (further
// ones are counted but not stored), so a badly broken run cannot OOM
// the harness.
const MaxViolations = 100

// NewOracle returns an oracle bound to a simulation
// engine. The engine must not have run yet: the oracle snapshots the
// pristine topology as its shadow graph.
func NewOracle(e *engine.Engine) *Oracle {
	return NewWorldOracle(EngineWorld{E: e})
}

// NewWorldOracle returns an oracle auditing any backend through its
// World surface.
func NewWorldOracle(w World) *Oracle {
	n := w.N()
	o := &Oracle{
		w:        w,
		n:        n,
		max:      MaxViolations,
		helpSeen: make([]bool, n),
		lastHelp: make([]sim.Time, n),
		ivSeen:   make([]bool, n),
		lastIv:   make([]sim.Time, n),
		lastPen:  make([]uint64, n),
		lastRew:  make([]uint64, n),
		above:    make([]bool, n),
		pending:  make(map[float64]int),
		pledges:  make(pairTable[sendRec], n),
		helps:    make(pairTable[span], n),
		cur:      make([]cursor, n),

		exhaustive: exhaustiveI4,

		ov: newOverlayAudit(n),
	}
	if g := w.Graph(); g != nil {
		o.shadow = g.Clone()
	}
	return o
}

// Hooks is the indirection that resolves the construction cycle
// between a backend and the oracle: the backend wants its trace
// recorder and observer at construction time, while the oracle needs
// the built backend's World to inspect node and protocol state. Point
// the config at a Hooks value, build the backend, then Bind the oracle:
//
//	h := &check.Hooks{}
//	cfg.Trace, cfg.Observer = h, h
//	e := engine.New(cfg, builder)
//	o := check.NewOracle(e)
//	h.Bind(o)
//
// Every callback serializes behind one mutex, so the single-threaded
// oracle (and any consumer attached with Tee) can sit behind shard
// workers or the live cluster's concurrently emitting host actors; on
// the sequential simulator the mutex is uncontended and free of side
// effects, keeping runs bit-identical to an unhooked engine.
type Hooks struct {
	mu    sync.Mutex
	o     *Oracle
	early []func(*Oracle) // oracle callbacks that arrived before Bind
	rec   trace.Recorder
	obs   trace.MessageObserver
}

var _ trace.Recorder = (*Hooks)(nil)
var _ trace.MessageObserver = (*Hooks)(nil)

// Bind points the forwarder at a constructed oracle and replays to it,
// in order, every callback that arrived before. A replayed audit reads
// node state as it stands at Bind, not at the callback's instant; no
// backend emits before Bind (the live cluster runs nothing before Run).
func (h *Hooks) Bind(o *Oracle) {
	h.mu.Lock()
	h.o = o
	for _, fn := range h.early {
		fn(o)
	}
	h.early = nil
	h.mu.Unlock()
}

// kept detaches m from the sender's View buffer, which it may reuse
// before a queued callback replays.
func kept(m protocol.Message) protocol.Message {
	m.View = append([]protocol.Candidate(nil), m.View...)
	return m
}

// Tee attaches an extra trace recorder and/or observer (e.g. a
// DecisionLog) that receives every event alongside the oracle. Call
// before the run starts. The consumers are invoked under the mutex and
// therefore need no locking of their own.
func (h *Hooks) Tee(rec trace.Recorder, obs trace.MessageObserver) {
	h.mu.Lock()
	h.rec, h.obs = rec, obs
	h.mu.Unlock()
}

// Locked runs fn under the mutex — the way end-of-run audits and
// mid-run violation reads exclude in-flight emissions on a concurrent
// backend.
func (h *Hooks) Locked(fn func()) {
	h.mu.Lock()
	fn()
	h.mu.Unlock()
}

// Record implements trace.Recorder.
func (h *Hooks) Record(ev trace.Event) {
	h.mu.Lock()
	if h.o != nil {
		h.o.Record(ev)
	} else {
		h.early = append(h.early, func(o *Oracle) { o.Record(ev) })
	}
	if h.rec != nil {
		h.rec.Record(ev)
	}
	h.mu.Unlock()
}

// OnSend implements trace.MessageObserver.
func (h *Hooks) OnSend(now sim.Time, from, to topology.NodeID, m protocol.Message) {
	h.mu.Lock()
	if h.o != nil {
		h.o.OnSend(now, from, to, m)
	} else {
		m := kept(m)
		h.early = append(h.early, func(o *Oracle) { o.OnSend(now, from, to, m) })
	}
	if h.obs != nil {
		h.obs.OnSend(now, from, to, m)
	}
	h.mu.Unlock()
}

// OnDeliver implements trace.MessageObserver.
func (h *Hooks) OnDeliver(now sim.Time, to topology.NodeID, m protocol.Message) {
	h.mu.Lock()
	if h.o != nil {
		h.o.OnDeliver(now, to, m)
	} else {
		m := kept(m)
		h.early = append(h.early, func(o *Oracle) { o.OnDeliver(now, to, m) })
	}
	if h.obs != nil {
		h.obs.OnDeliver(now, to, m)
	}
	h.mu.Unlock()
}

// OnDrop implements trace.MessageObserver.
func (h *Hooks) OnDrop(now sim.Time, from, to topology.NodeID, m protocol.Message, reason string) {
	h.mu.Lock()
	if h.o != nil {
		h.o.OnDrop(now, from, to, m, reason)
	} else {
		m := kept(m)
		h.early = append(h.early, func(o *Oracle) { o.OnDrop(now, from, to, m, reason) })
	}
	if h.obs != nil {
		h.obs.OnDrop(now, from, to, m, reason)
	}
	h.mu.Unlock()
}

// OnInject implements trace.MessageObserver.
func (h *Hooks) OnInject(now sim.Time, node topology.NodeID, size float64) {
	h.mu.Lock()
	if h.o != nil {
		h.o.OnInject(now, node, size)
	} else {
		h.early = append(h.early, func(o *Oracle) { o.OnInject(now, node, size) })
	}
	if h.obs != nil {
		h.obs.OnInject(now, node, size)
	}
	h.mu.Unlock()
}

// fail records a violation.
func (o *Oracle) fail(at sim.Time, inv string, node topology.NodeID, format string, args ...any) {
	if len(o.violations) >= o.max {
		o.dropped++
		return
	}
	o.violations = append(o.violations, Violation{
		At: at, Invariant: inv, Node: node, Detail: fmt.Sprintf(format, args...),
	})
}

// Violations returns the recorded breaches (empty on a clean run).
func (o *Oracle) Violations() []Violation { return o.violations }

// Dropped returns how many violations exceeded the retention cap.
func (o *Oracle) Dropped() int { return o.dropped }

// Err returns nil on a clean run, or an error describing the first
// violation (and the total count).
func (o *Oracle) Err() error {
	if len(o.violations) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s); first: %s",
		len(o.violations)+o.dropped, o.violations[0])
}

// state returns the auditable protocol state on a node, or nil, with
// the node's cursor — re-keyed, with a fresh read of the instance's
// limits, whenever the node runs an instance the cursor does not
// describe.
func (o *Oracle) state(id topology.NodeID) (ProtocolState, *cursor) {
	s, _ := o.w.Discovery(id).(ProtocolState)
	if s == nil {
		return nil, nil
	}
	c := &o.cur[id]
	if c.inst != s {
		cfg := s.Config()
		*c = cursor{inst: s, sender: -1, lim: limits{
			threshold: cfg.Threshold,
			entryTTL:  cfg.EntryTTL, membTTL: cfg.MembershipTTL,
			helpMin: cfg.HelpMin, helpUpper: cfg.HelpUpper,
		}}
	}
	return s, c
}

// Record implements trace.Recorder: the oracle's view of backend-level
// decisions (arrivals, admissions, migrations, crossings, churn).
func (o *Oracle) Record(ev trace.Event) {
	switch ev.Kind {
	case trace.Arrival:
		o.arrivals++
		o.pending[ev.Size]++

	case trace.AdmitLocal, trace.MigrateOK, trace.Reject:
		// I5: exactly-once resolution, keyed by task size (sizes are
		// continuous draws; multiset semantics keep duplicates sound).
		o.resolved++
		if o.pending[ev.Size] <= 0 {
			o.fail(ev.At, "I5-conservation", ev.Node,
				"%s for size %.9g without a matching unresolved arrival (duplicate outcome?)",
				ev.Kind, ev.Size)
			return
		}
		o.pending[ev.Size]--
		if o.pending[ev.Size] == 0 {
			delete(o.pending, ev.Size)
		}

	case trace.MigrateTry:
		o.checkFreshTarget(ev.At, ev.Node, ev.Peer)

	case trace.MsgSend:
		if ev.Info == "flood-HELP" {
			o.checkHelpFlood(ev.At, ev.Node)
		}

	case trace.CrossUp:
		if o.above[ev.Node] {
			o.fail(ev.At, "I8-crossing", ev.Node, "cross-up while already above threshold")
		}
		o.above[ev.Node] = true

	case trace.CrossDown:
		if !o.above[ev.Node] {
			o.fail(ev.At, "I8-crossing", ev.Node, "cross-down while not above threshold")
		}
		o.above[ev.Node] = false

	case trace.NodeKill:
		// Protocol state is dropped on death; a revived node runs a
		// fresh instance with a reset governor and crossing state, and
		// nothing delivered to the dead incarnation may justify its
		// soft state.
		o.pledges.clear(ev.Node)
		o.helps.clear(ev.Node)
		o.cur[ev.Node] = cursor{}
		o.above[ev.Node] = false
		o.helpSeen[ev.Node] = false
		o.ivSeen[ev.Node] = false

	case trace.NodeRevive:
		o.helpSeen[ev.Node] = false
		o.ivSeen[ev.Node] = false

	case trace.LinkCut:
		if o.shadow != nil {
			o.shadow.CutLink(ev.Node, ev.Peer)
		}

	case trace.LinkRestore:
		if o.shadow != nil {
			o.shadow.RestoreLink(ev.Node, ev.Peer)
		}
	}
}

// checkHelpFlood asserts I1 (governed protocols only) and I7 at the
// instant a HELP flood is emitted. Backends trace the flood from inside
// the protocol's Env.Flood call, before lastSent/interval mutate, so the
// live interval read here is exactly the value the rate-limit decision
// used, and the gap is measured on the instant the protocol read.
func (o *Oracle) checkHelpFlood(now sim.Time, node topology.NodeID) {
	s, c := o.state(node)
	if s == nil {
		return
	}
	iv, pen, rew := s.HelpIntervalState()
	if o.helpSeen[node] && s.HelpGoverned() {
		if gap := now - o.lastHelp[node]; gap <= iv {
			o.fail(now, "I1-help-rate", node,
				"HELP flood %.6g s after the previous one, within HELP_interval %.6g",
				float64(gap), float64(iv))
		}
	}
	o.helpSeen[node] = true
	o.lastHelp[node] = now
	o.checkInterval(now, node, c.lim, iv, pen, rew)
}

// checkInterval asserts I7 against the last observation of this node's
// governor state. Counter comparisons are exact on every backend — the
// penalty/reward counters are integers read atomically with the
// interval.
func (o *Oracle) checkInterval(now sim.Time, node topology.NodeID, lim limits,
	iv sim.Time, pen, rew uint64) {
	if iv < lim.helpMin-eps || iv > lim.helpUpper+eps {
		o.fail(now, "I7-interval-bounds", node,
			"HELP_interval %.6g outside [%.6g, %.6g]",
			float64(iv), float64(lim.helpMin), float64(lim.helpUpper))
	}
	if o.ivSeen[node] {
		p0, r0, iv0 := o.lastPen[node], o.lastRew[node], o.lastIv[node]
		switch {
		case pen == p0 && rew == r0:
			if iv != iv0 {
				o.fail(now, "I7-interval-bounds", node,
					"HELP_interval changed %.6g→%.6g with no penalty/reward step",
					float64(iv0), float64(iv))
			}
		case pen > p0 && rew == r0:
			if iv <= iv0-eps {
				o.fail(now, "I7-interval-bounds", node,
					"penalty step shrank HELP_interval %.6g→%.6g", float64(iv0), float64(iv))
			}
		case rew > r0 && pen == p0:
			if iv >= iv0+eps {
				o.fail(now, "I7-interval-bounds", node,
					"reward step grew HELP_interval %.6g→%.6g", float64(iv0), float64(iv))
			}
		case pen < p0 || rew < r0:
			o.fail(now, "I7-interval-bounds", node,
				"penalty/reward counters went backwards (%d→%d, %d→%d)", p0, pen, r0, rew)
		}
	}
	o.ivSeen[node] = true
	o.lastIv[node], o.lastPen[node], o.lastRew[node] = iv, pen, rew
}

// checkFreshTarget asserts I3: the migration target chosen by `from`
// must be backed by a live, unexpired pledge-list entry.
func (o *Oracle) checkFreshTarget(now sim.Time, from, target topology.NodeID) {
	s, c := o.state(from)
	if s == nil {
		return
	}
	ttl := c.lim.entryTTL
	entry, found := s.Pledge(target)
	switch {
	case !found:
		o.fail(now, "I3-soft-state-expiry", from,
			"migration try to node %d without a pledge-list entry (stale or fabricated candidate)",
			target)
	case now-entry.At >= ttl:
		o.fail(now, "I3-soft-state-expiry", from,
			"migration try to node %d using a pledge aged %.6g ≥ EntryTTL %.6g",
			target, float64(now-entry.At), float64(ttl))
	}
}

// OnSend implements trace.MessageObserver: asserts I2 (pledge
// propriety) and I6 (partition safety) on every message actually
// scheduled.
func (o *Oracle) OnSend(now sim.Time, from, to topology.NodeID, m protocol.Message) {
	o.msgSent++
	// I6: the backend claims from→to is reachable; verify on the shadow
	// graph maintained independently from link-cut/restore trace events.
	// Skipped when the world has no link overlay (live fabrics).
	if o.shadow != nil && !o.shadow.Reachable(from, to) {
		o.fail(now, "I6-partition-safety", from,
			"message %s sent to node %d across a recorded cut", m.Kind, to)
	}
	o.overlaySend(now, from, m)
	if m.Kind != protocol.Pledge {
		return
	}
	s, c := o.state(from)
	if s == nil {
		return
	}
	thr := c.lim.threshold
	usage := o.w.Usage(from, now)
	if m.Headroom > 0 {
		if usage > thr+eps {
			o.fail(now, "I2-pledge-propriety", from,
				"positive pledge (headroom %.6g) while usage %.6g above threshold %.6g",
				m.Headroom, usage, thr)
		}
		actual := o.w.Headroom(from, now)
		if m.Headroom > actual+eps || m.Headroom < actual-eps {
			o.fail(now, "I2-pledge-propriety", from,
				"pledged headroom %.6g but actual headroom is %.6g", m.Headroom, actual)
		}
	} else if usage < thr-eps {
		o.fail(now, "I2-pledge-propriety", from,
			"retraction pledge while usage %.6g below threshold %.6g", usage, thr)
	}
}

// OnDeliver implements trace.MessageObserver: audits the receiving
// node's soft state (I4) against what was delivered so far, then
// records the new delivery. The audit runs BEFORE recording because the
// observer fires before Discovery.Deliver mutates the state: the
// pre-delivery state must be justified by the pre-delivery history.
func (o *Oracle) OnDeliver(now sim.Time, to topology.NodeID, m protocol.Message) {
	o.msgDelivered++
	switch m.Kind {
	case protocol.Pledge, protocol.Advert:
		o.auditPledgeList(now, to)
		o.pledges.put(to, m.From, sendRec{at: now, headroom: m.Headroom})
		o.cur[to].sender = m.From
	case protocol.Help:
		o.auditMemberships(now, to)
		sp, old := o.helps.slot(to, m.From)
		if !old {
			sp.first = now
		}
		sp.last = now
	case protocol.DHTPut, protocol.DHTGet, protocol.DHTFound:
		o.overlayDeliver(now, to, m)
	}
}

// OnDrop implements trace.MessageObserver: a loss or in-flight-death
// drop resolves a previous send; a partition drop must separate nodes
// the shadow overlay really disconnects (no phantom partitions).
func (o *Oracle) OnDrop(now sim.Time, from, to topology.NodeID, m protocol.Message, reason string) {
	if reason == trace.DropPartition {
		if o.shadow != nil && o.shadow.Reachable(from, to) {
			o.fail(now, "I6-partition-safety", from,
				"message %s to node %d dropped as a partition drop while the shadow overlay still connects them",
				m.Kind, to)
		}
		return
	}
	o.msgDropped++
}

// OnInject implements trace.MessageObserver: injected bogus work is NOT
// a task arrival (no outcome is ever owed for it).
func (o *Oracle) OnInject(now sim.Time, node topology.NodeID, size float64) {
	if size <= 0 {
		o.fail(now, "I5-conservation", node, "non-positive injection %.6g reported", size)
	}
}

// fault classifies one I4 entry: justified, or which failure branch of
// its audit it takes.
type fault uint8

const (
	justified fault = iota
	unbacked        // no delivery behind the entry
	mistimed        // stamp (pledge) or join instant (membership) off the record
	excessive       // headroom above what was delivered; a join in the future
)

// pledgeFault classifies pledge-list entry c of node org against the
// last delivered PLEDGE/ADVERT from its member.
func (o *Oracle) pledgeFault(org topology.NodeID, c protocol.Candidate) (sendRec, fault) {
	rec, ok := o.pledges.get(org, c.ID)
	switch {
	case !ok || !(rec.headroom > 0):
		return rec, unbacked
	case c.At != rec.at:
		return rec, mistimed
	case c.Headroom > rec.headroom+eps:
		return rec, excessive
	}
	return rec, justified
}

// membershipFault classifies node member's membership in org's
// community, joined at join, against the HELPs org delivered to it.
func (o *Oracle) membershipFault(now sim.Time, member, org topology.NodeID, join sim.Time) (span, fault) {
	sp, ok := o.helps.get(member, org)
	switch {
	case !ok:
		return sp, unbacked
	case join < sp.first-eps || join > sp.last+eps:
		return sp, mistimed
	case join > now+eps:
		return sp, excessive
	}
	return sp, justified
}

// auditPledgeList asserts I4's organizer side for node org: every
// stored entry must match the last delivered positive pledge from that
// member — the same timestamp, headroom never above what
// was advertised (Debit only lowers it).
func (o *Oracle) auditPledgeList(now sim.Time, org topology.NodeID) {
	s, c := o.state(org)
	if s == nil {
		return
	}
	log := s.PledgeLog()
	if o.exhaustive || !c.pledgeClean || !o.pledgesHold(org, s, c, log) {
		c.pledgeClean = o.walkPledgeList(now, org, s)
	}
	if log != nil {
		c.pledgeSeen = log.Count()
	}
	c.sender = -1
}

// pledgesHold is the audit on write: it reports whether every entry
// written since the last audit, and the entry of the member whose
// record changed since, is still justified. false means "walk".
func (o *Oracle) pledgesHold(org topology.NodeID, s ProtocolState, c *cursor, log *protocol.WriteLog) bool {
	if log == nil || log.Count()-c.pledgeSeen > protocol.WriteLogSlots {
		return false
	}
	held := func(id topology.NodeID) bool {
		e, ok := s.Pledge(id)
		if !ok {
			return true // dropped entries need no justification
		}
		_, f := o.pledgeFault(org, e)
		return f == justified
	}
	senderHeld := c.sender < 0
	for k := c.pledgeSeen; k < log.Count(); k++ {
		id, ok := log.Written(k)
		if !ok || !held(id) {
			return false
		}
		senderHeld = senderHeld || id == c.sender
	}
	return senderHeld || held(c.sender)
}

// walkPledgeList checks every stored entry of org's list in list order,
// reporting each unjustified one, and returns whether all were
// justified.
func (o *Oracle) walkPledgeList(now sim.Time, org topology.NodeID, s ProtocolState) bool {
	clean := true
	s.EachPledge(func(c protocol.Candidate) bool {
		rec, f := o.pledgeFault(org, c)
		switch f {
		case unbacked:
			o.fail(now, "I4-provenance", org,
				"pledge-list entry for node %d with no delivered pledge behind it", c.ID)
		case mistimed:
			o.fail(now, "I4-provenance", org,
				"entry for node %d stamped t=%.6g but last delivered pledge was t=%.6g",
				c.ID, float64(c.At), float64(rec.at))
		case excessive:
			o.fail(now, "I4-provenance", org,
				"entry for node %d advertises headroom %.6g > delivered %.6g",
				c.ID, c.Headroom, rec.headroom)
		}
		clean = clean && f == justified
		return true
	})
	return clean
}

// auditMemberships asserts I4's member side for node member: every
// membership's join instant (expiry − MembershipTTL) must fall within
// the span of HELP deliveries received from that organizer. Only a membership write can break this — spans only
// widen and the audit instant only grows — so after a clean audit the
// next one checks just the memberships the log names.
func (o *Oracle) auditMemberships(now sim.Time, member topology.NodeID) {
	s, c := o.state(member)
	if s == nil {
		return
	}
	log := s.MembershipLog()
	if o.exhaustive || !c.membClean || !o.membershipsHold(now, member, s, c, log) {
		c.membClean = o.walkMemberships(now, member, s, c.lim.membTTL)
	}
	if log != nil {
		c.membSeen = log.Count()
	}
}

// membershipsHold is auditMemberships' audit on write, as pledgesHold.
func (o *Oracle) membershipsHold(now sim.Time, member topology.NodeID, s ProtocolState, c *cursor,
	log *protocol.WriteLog) bool {
	if log == nil || log.Count()-c.membSeen > protocol.WriteLogSlots {
		return false
	}
	for k := c.membSeen; k < log.Count(); k++ {
		org, ok := log.Written(k)
		if !ok {
			return false
		}
		if expiry, ok := s.Membership(org); ok {
			if _, f := o.membershipFault(now, member, org, expiry-c.lim.membTTL); f != justified {
				return false
			}
		}
	}
	return true
}

// walkMemberships checks every stored membership of member in
// organizer order, reporting each unjustified one, and returns whether
// all were justified.
func (o *Oracle) walkMemberships(now sim.Time, member topology.NodeID, s ProtocolState, ttl sim.Time) bool {
	clean := true
	s.EachMembership(func(org topology.NodeID, expiry sim.Time) bool {
		join := expiry - ttl
		sp, f := o.membershipFault(now, member, org, join)
		switch f {
		case unbacked:
			o.fail(now, "I4-provenance", member,
				"membership in community %d with no delivered HELP behind it", org)
		case mistimed:
			o.fail(now, "I4-provenance", member,
				"membership in community %d joined at t=%.6g outside HELP span [%.6g, %.6g]",
				org, float64(join), float64(sp.first), float64(sp.last))
		case excessive:
			o.fail(now, "I4-provenance", member,
				"membership in community %d joined in the future (t=%.6g > now %.6g)",
				org, float64(join), float64(now))
		}
		clean = clean && f == justified
		return true
	})
	return clean
}

// FinishNode runs the end-of-run audits for one node: its final soft
// state must still be justified and its governor consistent. It is a
// no-op for dead nodes. Live backends must invoke it from a context
// where the node's protocol state may be read (its actor loop); the
// simulator calls it for every node via Finish.
func (o *Oracle) FinishNode(now sim.Time, id topology.NodeID) {
	if !o.w.Alive(id) {
		return
	}
	o.auditPledgeList(now, id)
	o.auditMemberships(now, id)
	o.finishOverlayNode(now, id)
	if s, c := o.state(id); s != nil {
		iv, pen, rew := s.HelpIntervalState()
		o.checkInterval(now, id, c.lim, iv, pen, rew)
	}
}

// FinishTotals runs the end-of-run aggregate checks: task conservation
// must balance, and message conservation must not have resolved more
// deliveries and drops than sends. Call it after every FinishNode.
func (o *Oracle) FinishTotals(now sim.Time) {
	if len(o.pending) != 0 {
		unresolved := 0
		for _, n := range o.pending {
			unresolved += n
		}
		o.fail(now, "I5-conservation", -1,
			"%d task(s) arrived but never resolved (admit/reject missing)", unresolved)
	}
	if o.resolved != o.arrivals && len(o.pending) == 0 {
		// Balanced multiset but unequal totals means duplicates matched
		// losses; the per-event checks above will have flagged them.
		o.fail(now, "I5-conservation", -1,
			"resolved %d outcomes for %d arrivals", o.resolved, o.arrivals)
	}
	// Message conservation: a backend may lose messages it cannot
	// account for (real sockets), so delivered+dropped < sent is legal;
	// resolving MORE than was sent means duplication.
	if o.msgDelivered+o.msgDropped > o.msgSent {
		o.fail(now, "I5-conservation", -1,
			"message ledger overdrawn: %d delivered + %d dropped > %d sent",
			o.msgDelivered, o.msgDropped, o.msgSent)
	}
}

// Finish runs the end-of-run checks on a sequential backend: aggregate
// totals first, then every node's final audit. Call it after the run
// settles, passing the backend's final clock. Concurrent backends
// should instead route FinishNode through each node's safe context and
// then call FinishTotals.
func (o *Oracle) Finish(now sim.Time) {
	o.FinishTotals(now)
	for i := 0; i < o.n; i++ {
		o.FinishNode(now, topology.NodeID(i))
	}
}
