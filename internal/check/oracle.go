// Package check turns the REALTOR protocol invariants — stated
// informally in the paper and pinned in DESIGN.md §8 — into an
// executable runtime oracle. The Oracle attaches to a backend's trace
// and observer hooks and continuously asserts:
//
//	I1  HELP rate-limiting: consecutive HELP floods from one node are
//	    separated by strictly more than the live HELP_interval
//	    (Algorithm H, "at least HELP_interval apart").
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
//	    advertised), and every member-side membership is justified by a
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
//	I9  Token-bucket legality (policy layer): a node running the
//	    token-bucket policy never emits HELP floods above the configured
//	    rate over any window — checked by replaying the bucket's refill
//	    arithmetic at each observed emission (original or reissue).
//	I10 Breaker legality (policy layer): circuit breakers move only
//	    along closed→open→half-open→{closed,open}; no migration try
//	    targets a cooling-open breaker, and the monotone audit counters
//	    satisfy HalfOpens ≤ Trips and Probes ≤ HalfOpens (probes only
//	    while half-open, one per half-open period).
//	I11 Retry conservation (policy layer): reflooded HELPs on the wire
//	    never exceed the reissues the retrier attempted, reissues are
//	    bounded by (MaxAttempts−1) per original, and task conservation
//	    (I5) holds unchanged — a retried exchange never duplicates a
//	    task outcome.
//
// The oracle is backend-agnostic: it inspects the run exclusively
// through the World interface (node liveness and resource state plus
// per-node Discovery instances), so the same invariants assert against
// the discrete-event engine and the live Agile cluster. Timing-sensitive
// checks (I1, I3, and the timestamp comparisons inside I2/I4) take a
// clock-slack parameter: the simulator runs with slack 0 (exact), the
// live backend with a tolerance covering the drift between a protocol
// decision's clock read and the observer's.
//
// The oracle is read-only: it inspects protocol state exclusively
// through the non-perturbing accessors (EachPledge, EachMembership,
// HelpIntervalState) so attaching it cannot change a run's trajectory.
package check

import (
	"fmt"
	"math"
	"sync"

	"realtor/internal/engine"
	"realtor/internal/policy"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// eps absorbs float64 rounding in resource comparisons. Times and
// counters are compared exactly on the simulator (slack 0) — it is
// deterministic; live backends widen time comparisons by their slack.
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
// expose for the oracle to audit it. core.Realtor and the slow
// Reference implementation in this package both satisfy it; protocol
// instances that don't (the push/gossip baselines) are simply skipped.
type ProtocolState interface {
	Config() protocol.Config
	EachPledge(fn func(protocol.Candidate) bool)
	EachMembership(fn func(org topology.NodeID, expiry sim.Time) bool)
	HelpIntervalState() (interval sim.Time, penalties, rewards uint64)
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

// pairTable holds one record per directed relationship between two
// nodes: t[a][b]. It is indexed by node first because every audit walks
// one node's soft state — all its lookups then land in that node's own
// small map, hashed on a single word — and because it holds any node ID
// a World can have (a packed two-ID key would alias past 2³²). Rows are
// made on first write; a missing row reads as empty.
type pairTable[V any] []map[topology.NodeID]V

func (t pairTable[V]) put(a, b topology.NodeID, v V) {
	if t[a] == nil {
		t[a] = make(map[topology.NodeID]V)
	}
	t[a][b] = v
}

// sendRec remembers the last justified availability push b→a.
type sendRec struct {
	at       sim.Time
	headroom float64
}

// span tracks the first and last time an event was observed for a pair.
type span struct {
	first, last sim.Time
	seen        bool
}

// Oracle asserts the protocol invariants against one run. Wire it in as
// both the backend's trace recorder and observer (see Hooks), run the
// backend, then call Finish and inspect Violations / Err.
type Oracle struct {
	w     World
	slack sim.Time // clock tolerance for timing-sensitive checks
	n     int
	max   int

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
	// positive-headroom PLEDGE/ADVERT member→org; helps[member][org]
	// spans the HELP deliveries org→member.
	pledges pairTable[sendRec]
	helps   pairTable[span]

	// I6 shadow topology, maintained solely from trace events and asked
	// only Reachable (component labels, never a distance row) — a
	// different algorithm than the engine routes by. Nil when the world
	// has no link-level overlay; I6 is then not checked.
	shadow *topology.Graph

	// I9 token-bucket replay, per node incarnation: tokens sampled only
	// at observed emissions (exact, because the refill cap composes
	// across sampling points — see policy.tokenBucket).
	bktInit   []bool
	bktTokens []float64
	bktLast   []sim.Time
	birth     []sim.Time // start of the node's current incarnation

	// I11 retry ledger: refloods observed on the wire per incarnation.
	refloods []uint64

	// I4-overlay / I5-overlay structured-overlay bookkeeping
	// (overlay.go).
	ov overlayAudit
}

// MaxViolations bounds how many violations an oracle retains (further
// ones are counted but not stored), so a badly broken run cannot OOM
// the harness.
const MaxViolations = 100

// NewOracle returns an exact (slack 0) oracle bound to a simulation
// engine. The engine must not have run yet: the oracle snapshots the
// pristine topology as its shadow graph.
func NewOracle(e *engine.Engine) *Oracle {
	return NewWorldOracle(EngineWorld{E: e}, 0)
}

// NewWorldOracle returns an oracle auditing any backend through its
// World surface. slack widens the timing-sensitive checks (I1, I3, and
// timestamp comparisons in I2/I4) by the given scaled-seconds tolerance;
// pass 0 for deterministic backends.
func NewWorldOracle(w World, slack sim.Time) *Oracle {
	if slack < 0 {
		panic("check: negative clock slack")
	}
	n := w.N()
	o := &Oracle{
		w:        w,
		slack:    slack,
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

		bktInit:   make([]bool, n),
		bktTokens: make([]float64, n),
		bktLast:   make([]sim.Time, n),
		birth:     make([]sim.Time, n),
		refloods:  make([]uint64, n),
		ov:        newOverlayAudit(n),
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
	mu  sync.Mutex
	o   *Oracle
	rec trace.Recorder
	obs trace.MessageObserver
}

var _ trace.Recorder = (*Hooks)(nil)
var _ trace.MessageObserver = (*Hooks)(nil)

// Bind points the forwarder at a constructed oracle.
func (h *Hooks) Bind(o *Oracle) {
	h.mu.Lock()
	h.o = o
	h.mu.Unlock()
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

// state returns the auditable protocol state on a node, or nil.
func (o *Oracle) state(id topology.NodeID) ProtocolState {
	s, _ := o.w.Discovery(id).(ProtocolState)
	return s
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
		o.checkBreakerTry(ev.At, ev.Node, ev.Peer)

	case trace.MsgSend:
		switch ev.Info {
		case "flood-HELP":
			o.checkHelpFlood(ev.At, ev.Node)
			o.checkBucket(ev.At, ev.Node)
		case "reflood-HELP":
			// Policy-layer reissue: exempt from I1 (the inner governor
			// never saw it) but bucket-gated (I9) and ledgered (I11).
			o.refloods[ev.Node]++
			o.checkBucket(ev.At, ev.Node)
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
		// fresh instance with a reset governor, crossing state, and
		// policy stack (full bucket, empty retry ledger).
		o.above[ev.Node] = false
		o.helpSeen[ev.Node] = false
		o.ivSeen[ev.Node] = false
		o.bktInit[ev.Node] = false
		o.refloods[ev.Node] = 0

	case trace.NodeRevive:
		o.helpSeen[ev.Node] = false
		o.ivSeen[ev.Node] = false
		o.bktInit[ev.Node] = false
		o.birth[ev.Node] = ev.At
		o.refloods[ev.Node] = 0

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

// checkHelpFlood asserts I1 and I7 at the instant a HELP flood is
// emitted. Backends trace the flood from inside MaybeHelpFor before
// lastSent/interval mutate, so the live interval read here is exactly
// the value the rate-limit decision used. The gap, however, is measured
// on the observer's clock, which on a live backend lags the protocol's
// own reads — the slack absorbs that drift.
func (o *Oracle) checkHelpFlood(now sim.Time, node topology.NodeID) {
	s := o.state(node)
	if s == nil {
		return
	}
	iv, pen, rew := s.HelpIntervalState()
	if o.helpSeen[node] {
		if gap := now - o.lastHelp[node]; gap <= iv-o.slack {
			o.fail(now, "I1-help-rate", node,
				"HELP flood %.6g s after the previous one, within HELP_interval %.6g",
				float64(gap), float64(iv))
		}
	}
	o.helpSeen[node] = true
	o.lastHelp[node] = now
	o.checkInterval(now, node, s, iv, pen, rew)
}

// checkInterval asserts I7 against the last observation of this node's
// governor state. Counter comparisons are exact on every backend — the
// penalty/reward counters are integers read atomically with the
// interval, so no clock slack applies.
func (o *Oracle) checkInterval(now sim.Time, node topology.NodeID, s ProtocolState,
	iv sim.Time, pen, rew uint64) {
	cfg := s.Config()
	if iv < cfg.HelpMin-eps || iv > cfg.HelpUpper+eps {
		o.fail(now, "I7-interval-bounds", node,
			"HELP_interval %.6g outside [%.6g, %.6g]",
			float64(iv), float64(cfg.HelpMin), float64(cfg.HelpUpper))
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

// auditor returns the policy-layer audit surface on a node, or nil
// when the node runs no policy stack.
func (o *Oracle) auditor(id topology.NodeID) policy.Auditor {
	a, _ := o.w.Discovery(id).(policy.Auditor)
	return a
}

// checkBucket asserts I9 at each HELP emission (original or reissue):
// replaying the token bucket's refill arithmetic, every emission must
// find at least one whole token. The real bucket also refills at
// suppressed attempts the oracle cannot see, but the refill cap
// min(burst, t + rate·dt) composes across sampling points — stepwise
// capping equals capping once over the total elapsed time — so the
// replay sampled only at emissions is exact up to float rounding. The
// epsilon covers that rounding; the slack term covers live-backend
// drift between the policy's clock read and the observer's.
func (o *Oracle) checkBucket(now sim.Time, node topology.NodeID) {
	a := o.auditor(node)
	if a == nil {
		return
	}
	rate, burst, on := a.BucketLimits()
	if !on {
		return
	}
	if !o.bktInit[node] {
		o.bktInit[node] = true
		o.bktTokens[node] = burst
		o.bktLast[node] = o.birth[node]
	}
	t := math.Min(burst, o.bktTokens[node]+rate*float64(now-o.bktLast[node]))
	o.bktLast[node] = now
	tol := 1e-6 + float64(o.slack)*rate
	if t < 1-tol {
		o.fail(now, "I9-token-bucket", node,
			"HELP flood with only %.6g tokens accrued (rate %.6g, burst %.6g): emission above the configured rate",
			t, rate, burst)
	}
	if t--; t < 0 {
		t = 0
	}
	o.bktTokens[node] = t
}

// checkBreakerTry asserts I10's filtering side at a migration try: the
// chosen target's breaker on the trying node must not be open and
// still cooling — the breaker exists precisely to keep such targets
// out of candidate lists until the cooldown expires. The counter
// relations are re-audited here too, so a miswired state machine is
// caught at its first migration, not only at run end.
func (o *Oracle) checkBreakerTry(now sim.Time, from, target topology.NodeID) {
	a := o.auditor(from)
	if a == nil {
		return
	}
	a.EachBreaker(now, func(b policy.BreakerSnapshot) bool {
		if b.Target != target {
			return true
		}
		if b.State == policy.Open && now+o.slack < b.Until {
			o.fail(now, "I10-breaker-legality", from,
				"migration try to node %d while its breaker is open until t=%.6g",
				target, float64(b.Until))
		}
		return false
	})
	o.checkBreakerCounters(now, from, a)
}

// checkBreakerCounters asserts I10's state-machine legality from the
// monotone audit counters, checkable at any observation point: there
// is no closed→half-open edge (HalfOpens ≤ Trips), probes happen only
// while half-open with at most one per half-open period (Probes ≤
// HalfOpens), and the current state must be reachable through the
// legal machine (Open needs a trip, HalfOpen needs a recorded
// open→half-open transition).
func (o *Oracle) checkBreakerCounters(now sim.Time, node topology.NodeID, a policy.Auditor) {
	a.EachBreaker(now, func(b policy.BreakerSnapshot) bool {
		switch {
		case b.HalfOpens > b.Trips:
			o.fail(now, "I10-breaker-legality", node,
				"target %d: %d half-open transitions exceed %d trips (illegal closed→half-open edge)",
				b.Target, b.HalfOpens, b.Trips)
		case b.Probes > b.HalfOpens:
			o.fail(now, "I10-breaker-legality", node,
				"target %d: %d probes exceed %d half-open periods (probe outside half-open)",
				b.Target, b.Probes, b.HalfOpens)
		case b.State == policy.Open && b.Trips == 0:
			o.fail(now, "I10-breaker-legality", node,
				"target %d: breaker open with zero recorded trips", b.Target)
		case b.State == policy.HalfOpen && b.HalfOpens == 0:
			o.fail(now, "I10-breaker-legality", node,
				"target %d: breaker half-open with zero recorded half-open transitions", b.Target)
		}
		return true
	})
}

// checkRetryLedger asserts I11: retries are message-level only. The
// refloods observed on the wire cannot exceed the reissues the retrier
// attempted (the bucket may have gated some), and reissues are bounded
// by MaxAttempts−1 per original HELP. Task conservation (I5) is
// asserted independently and unchanged — a retried exchange never
// duplicates a task outcome.
func (o *Oracle) checkRetryLedger(now sim.Time, id topology.NodeID, a policy.Auditor) {
	originals, reissued, maxTries, on := a.RetryLedger()
	if !on {
		return
	}
	if o.refloods[id] > reissued {
		o.fail(now, "I11-retry-conservation", id,
			"%d refloods on the wire exceed %d reissues attempted", o.refloods[id], reissued)
	}
	if lim := uint64(maxTries-1) * originals; reissued > lim {
		o.fail(now, "I11-retry-conservation", id,
			"%d reissues exceed (max_attempts-1)×originals = %d×%d",
			reissued, maxTries-1, originals)
	}
}

// checkFreshTarget asserts I3: the migration target chosen by `from`
// must be backed by a live, unexpired pledge-list entry. The age is
// measured on the observer's clock, so the expiry comparison widens by
// the slack on live backends.
func (o *Oracle) checkFreshTarget(now sim.Time, from, target topology.NodeID) {
	s := o.state(from)
	if s == nil {
		return
	}
	ttl := s.Config().EntryTTL
	var entry protocol.Candidate
	found := false
	s.EachPledge(func(c protocol.Candidate) bool {
		if c.ID == target {
			entry, found = c, true
			return false
		}
		return true
	})
	switch {
	case !found:
		o.fail(now, "I3-soft-state-expiry", from,
			"migration try to node %d without a pledge-list entry (stale or fabricated candidate)",
			target)
	case now-entry.At >= ttl+o.slack:
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
	s := o.state(from)
	if s == nil {
		return
	}
	// Resource comparisons drift by at most the clock slack (queues
	// drain one second per scaled second, so slack seconds of clock
	// drift move headroom by at most slack).
	thr := s.Config().Threshold
	usage := o.w.Usage(from, now)
	uSlack := 0.0
	if o.slack > 0 {
		if cap := o.w.Capacity(from); cap > 0 {
			uSlack = float64(o.slack) / cap
		}
	}
	if m.Headroom > 0 {
		if usage > thr+eps+uSlack {
			o.fail(now, "I2-pledge-propriety", from,
				"positive pledge (headroom %.6g) while usage %.6g above threshold %.6g",
				m.Headroom, usage, thr)
		}
		actual := o.w.Headroom(from, now)
		if m.Headroom > actual+eps+float64(o.slack) || m.Headroom < actual-eps-float64(o.slack) {
			o.fail(now, "I2-pledge-propriety", from,
				"pledged headroom %.6g but actual headroom is %.6g", m.Headroom, actual)
		}
	} else if usage < thr-eps-uSlack {
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
		if m.Headroom > 0 {
			o.pledges.put(to, m.From, sendRec{at: now, headroom: m.Headroom})
		}
	case protocol.Help:
		o.auditMemberships(now, to)
		sp := o.helps[to][m.From]
		if !sp.seen {
			sp.first, sp.seen = now, true
		}
		sp.last = now
		o.helps.put(to, m.From, sp)
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

// auditPledgeList asserts I4's organizer side for node org: every
// stored entry must match the last delivered positive pledge from that
// member — timestamps within the clock slack, headroom never above what
// was advertised (Debit only lowers it).
func (o *Oracle) auditPledgeList(now sim.Time, org topology.NodeID) {
	s := o.state(org)
	if s == nil {
		return
	}
	delivered := o.pledges[org]
	s.EachPledge(func(c protocol.Candidate) bool {
		rec, ok := delivered[c.ID]
		switch {
		case !ok:
			o.fail(now, "I4-provenance", org,
				"pledge-list entry for node %d with no delivered pledge behind it", c.ID)
		case c.At > rec.at+o.slack || c.At < rec.at-o.slack:
			o.fail(now, "I4-provenance", org,
				"entry for node %d stamped t=%.6g but last delivered pledge was t=%.6g",
				c.ID, float64(c.At), float64(rec.at))
		case c.Headroom > rec.headroom+eps:
			o.fail(now, "I4-provenance", org,
				"entry for node %d advertises headroom %.6g > delivered %.6g",
				c.ID, c.Headroom, rec.headroom)
		}
		return true
	})
}

// auditMemberships asserts I4's member side for node member: every
// membership's join instant (expiry − MembershipTTL) must fall within
// the span of HELP deliveries received from that organizer, widened by
// the clock slack.
func (o *Oracle) auditMemberships(now sim.Time, member topology.NodeID) {
	s := o.state(member)
	if s == nil {
		return
	}
	ttl := s.Config().MembershipTTL
	delivered := o.helps[member]
	s.EachMembership(func(org topology.NodeID, expiry sim.Time) bool {
		join := expiry - ttl
		sp := delivered[org]
		switch {
		case !sp.seen:
			o.fail(now, "I4-provenance", member,
				"membership in community %d with no delivered HELP behind it", org)
		case join < sp.first-eps-o.slack || join > sp.last+eps+o.slack:
			o.fail(now, "I4-provenance", member,
				"membership in community %d joined at t=%.6g outside HELP span [%.6g, %.6g]",
				org, float64(join), float64(sp.first), float64(sp.last))
		case join > now+eps+o.slack:
			o.fail(now, "I4-provenance", member,
				"membership in community %d joined in the future (t=%.6g > now %.6g)",
				org, float64(join), float64(now))
		}
		return true
	})
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
	if s := o.state(id); s != nil {
		iv, pen, rew := s.HelpIntervalState()
		o.checkInterval(now, id, s, iv, pen, rew)
	}
	if a := o.auditor(id); a != nil {
		o.checkBreakerCounters(now, id, a)
		o.checkRetryLedger(now, id, a)
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
