// Package engine wires the simulation together: it owns the event
// scheduler, the nodes, one Discovery instance per node, message delivery
// with per-hop latency, threshold-crossing detection, and the
// arrival → local-admission → one-try-migration pipeline of the paper's
// Section 5 experiments. It also exposes Kill/Revive so the attack
// injectors can exercise the survivability path.
//
// The engine runs either single-threaded (the classic kernel) or
// sharded across worker goroutines under a conservative-lookahead
// coordinator (shard.go) — cfg.Shards selects; results are byte-
// identical either way because every event carries a creator-assigned
// canonical key (sim.EventKey) that fixes the order of simultaneous
// events independently of scheduling interleaving.
package engine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"realtor/internal/metrics"
	"realtor/internal/node"
	"realtor/internal/protocol"
	"realtor/internal/resource"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Graph         *topology.Graph
	QueueCapacity float64 // per-node queue, seconds (paper: 100)
	// Capacities optionally overrides QueueCapacity per node for
	// heterogeneous clusters (len must equal Graph.N(); zero entries
	// fall back to QueueCapacity).
	Capacities []float64
	HopDelay   sim.Time // per-hop message latency, seconds (pinned: 0.01)
	Threshold  float64  // crossing-detection threshold (paper: 0.9)
	Warmup     sim.Time // stats excluded before this time
	Duration   sim.Time // arrivals stop here; in-flight work settles after

	// Shards splits the mesh into that many contiguous node-ID bands,
	// each with its own event queue and worker goroutine, synchronized
	// by conservative lookahead (DESIGN.md §10). 0 or 1 runs the classic
	// single-threaded kernel. Requires HopDelay > 0 when > 1 (zero-delay
	// messages leave no lookahead to parallelize under). Results are
	// byte-identical at every shard count.
	Shards int

	// InlineHooks delivers Trace/Observer callbacks synchronously from
	// worker goroutines when Shards > 1, instead of buffering them for
	// ordered replay at the next phase barrier. Consumers must then be
	// concurrency-safe (the harness funnel is) and tolerate cross-shard
	// interleaving; per-callback engine state is live at call time,
	// which the invariant oracle's headroom checks need. Single-shard
	// runs always deliver inline.
	InlineHooks bool

	// RerouteDeadArrivals sends tasks that arrive at a dead node to a
	// random alive node instead of dropping them (attack experiments).
	RerouteDeadArrivals bool

	// BinWidth, when positive, additionally records offered/admitted
	// counts per BinWidth-second interval over the whole run (warmup
	// included), for timeline plots of attack scenarios.
	BinWidth sim.Time

	// FloodRadius, when positive, limits every flood to nodes within
	// that many hops of the sender — the "mechanism in place limiting
	// the scope of neighbors, for example, as an IP multicast group"
	// that Section 5 assumes. A scoped flood is charged only the links
	// of the flooded subgraph. 0 means system-wide floods (the paper's
	// 25-node simulation setting).
	FloodRadius int

	// Groups, when non-nil, partitions nodes into neighbor groups (one
	// group ID per node): floods then reach only the sender's group and
	// are charged the group's internal links. This is the substrate for
	// the inter-neighbor-group discovery of the paper's future work
	// (Section 7), implemented in internal/federation. Mutually
	// exclusive with FloodRadius.
	Groups []int

	// MaxTries bounds how many candidates a migrating task may try in
	// sequence. The paper's simulation pins 1 ("only a one-time migration
	// try to the best candidate", Section 5) — the default — while the
	// Agile Objects runtime description walks the list ("migration is
	// aborted and the next node in REALTOR's list is tried", Section 3).
	// 0 means 1.
	MaxTries int

	// LossProb drops each protocol message delivery independently with
	// this probability (deterministically, from Seed). The paper argues
	// REALTOR's soft state makes it robust to exactly this; 0 disables
	// and 1 is a total blackout (no discovery traffic at all).
	// Task transfers and admission negotiation are not dropped (they are
	// reliable/TCP in the paper's architecture).
	LossProb float64

	// Attrs optionally assigns per-node placement attributes (bandwidth,
	// memory, security); tasks whose Require is not satisfied by a node
	// can neither run nor be migrated there. nil means unconstrained.
	Attrs []resource.Attrs

	// Trace, when set, receives structured events (arrivals, admissions,
	// migrations, protocol messages, crossings, churn). Off by default —
	// tracing a long run produces a lot of events.
	Trace trace.Recorder

	// OnOutcome, when set, is called once per task with its final fate
	// (admitted or rejected), letting experiments bucket admission by
	// task class without touching the aggregate stats.
	OnOutcome func(t workload.Task, admitted bool)

	// Observer, when set, sees every protocol message the engine
	// schedules and delivers, with full message contents — unlike Trace
	// events, which carry only metadata. This is the hook the invariant
	// oracle in internal/check attaches to. Nil costs one pointer
	// comparison on the hot path. All four callbacks run synchronously
	// inside the event loop and must not mutate engine state:
	//
	//   - OnSend fires when a delivery is actually scheduled: after the
	//     live-overlay reachability check (a send to an unreachable node is
	//     a partition drop, not a send) and before the probabilistic loss
	//     draw, so the observer sees every message that legitimately left
	//     the sender — including ones the lossy network will eat.
	//   - OnDeliver fires when the message reaches a live destination (the
	//     same instant Discovery.Deliver runs).
	//   - OnDrop fires for every message the engine discards: unreachable
	//     sends (trace.DropPartition, also counted as PartitionDrops), lossy
	//     deliveries (trace.DropLoss), and in-flight deaths (trace.DropDead)
	//     — so conservation checks need no side-channel.
	//   - OnInject fires when Engine.Inject adds bogus work to a queue.
	Observer trace.MessageObserver

	// OnProgress, when set, receives periodic run-progress snapshots —
	// sim clock, events fired, stats so far — from quiescent points of
	// the run loop: between bounded RunUntil chunks on the classic
	// kernel, at phase barriers on the sharded one. It never fires from
	// inside event execution, so reading aggregated stats is safe, and
	// it fires no events of its own, so runs are byte-identical with or
	// without it. Checkpoints (snapshots and, on the classic kernel,
	// cancellation polls) are Duration/64 of sim time apart.
	OnProgress func(Progress)

	// Seed drives engine-internal choices (dead-arrival rerouting,
	// per-node loss streams).
	Seed int64
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	switch {
	case c.Graph == nil:
		return fmt.Errorf("engine: nil graph")
	case c.QueueCapacity <= 0:
		return fmt.Errorf("engine: queue capacity %v must be positive", c.QueueCapacity)
	case c.HopDelay < 0:
		return fmt.Errorf("engine: negative hop delay")
	case c.Shards < 0:
		return fmt.Errorf("engine: negative shard count")
	case c.Shards > 1 && c.HopDelay == 0:
		return fmt.Errorf("engine: Shards > 1 needs positive HopDelay (conservative lookahead is HopDelay × min cross-shard distance)")
	case c.Threshold <= 0 || c.Threshold > 1:
		return fmt.Errorf("engine: threshold %v outside (0,1]", c.Threshold)
	case c.Warmup < 0 || c.Duration <= c.Warmup:
		return fmt.Errorf("engine: need 0 <= warmup(%v) < duration(%v)", c.Warmup, c.Duration)
	case c.Groups != nil && len(c.Groups) != c.Graph.N():
		return fmt.Errorf("engine: %d group assignments for %d nodes", len(c.Groups), c.Graph.N())
	case c.Groups != nil && c.FloodRadius > 0:
		return fmt.Errorf("engine: Groups and FloodRadius are mutually exclusive")
	case c.Attrs != nil && len(c.Attrs) != c.Graph.N():
		return fmt.Errorf("engine: %d attribute sets for %d nodes", len(c.Attrs), c.Graph.N())
	case c.LossProb < 0 || c.LossProb > 1:
		// LossProb == 1 is a deliberate total blackout: every discovery
		// datagram is lost, so only local admission can succeed —
		// expressible so adversarial tests can pin the degenerate case.
		return fmt.Errorf("engine: loss probability %v outside [0,1]", c.LossProb)
	case c.MaxTries < 0:
		return fmt.Errorf("engine: negative MaxTries")
	case c.Capacities != nil && len(c.Capacities) != c.Graph.N():
		return fmt.Errorf("engine: %d capacities for %d nodes", len(c.Capacities), c.Graph.N())
	}
	for i, cap := range c.Capacities {
		if cap < 0 {
			return fmt.Errorf("engine: negative capacity for node %d", i)
		}
	}
	return nil
}

// Builder constructs a fresh Discovery instance (one per node, and again
// on revival).
type Builder func() protocol.Discovery

// srcArrival is the canonical tie-break namespace of workload arrivals:
// after external control events (sim.SrcExternal = -2) and before every
// per-node namespace (node IDs, ≥ 0). Sequence numbers are the global
// arrival index — the workload source is one ordered stream.
const srcArrival int32 = -1

// diamExactLimit is the node count above which Run sizes its settling
// window from the two-BFS DiameterUpperBound instead of the exact
// Diameter (any upper bound yields a correct settle). 4096 keeps every
// committed study (≤ 2500 nodes) on the exact path, and — because the
// choice depends only on N — the window is identical at every shard
// count.
const diamExactLimit = 4096

// distUnknown marks a delivery distance the sender has not computed
// (topology.Graph.Dist uses -1 for "unreachable", so the sentinel must
// sit outside its range).
const distUnknown = -2

// Arrival resolution modes: where a task actually lands.
const (
	arrNormal        uint8 = iota // execute on the resolved node
	arrRejectDead                 // target dead, rerouting off
	arrRejectNoAlive              // rerouting on, but no node is alive
)

// Engine is one configured simulation.
type Engine struct {
	cfg   Config
	sched *sim.Scheduler // external/global events; the only queue when shards == 1
	cost  protocol.CostModel
	nodes []node.Node // value slice: node state is contiguous in memory
	disco []protocol.Discovery
	envs  []*nodeEnv
	build Builder

	// rerouteRnd drives dead-arrival rerouting — a dedicated stream
	// drawn in arrival order, so draws are identical at any shard count.
	rerouteRnd *rng.Stream
	// lossRnd holds one 16-byte generator per node (allocated only when
	// LossProb > 0); each sender draws losses from its own stream in its
	// own canonical send order, decoupling draws from interleaving.
	lossRnd []rng.Light

	// graph is the live topology view every flood/unicast routes
	// through: initially cfg.Graph, replaced by a private clone on the
	// first link mutation (copy-on-write), so experiments may share one
	// pristine Graph across parallel engines while each engine cuts and
	// heals links independently inside its own event loop.
	graph     *topology.Graph
	ownsGraph bool

	// sharding
	shards  int
	shardOf []int32
	ctxs    []*shardCtx
	delta   sim.Time // conservative lookahead; +Inf when shards never interact
	inline  bool     // emit hooks synchronously (shards == 1 or cfg.InlineHooks)

	// inGlobal is set while the coordinator fires a global event at a
	// barrier. All shard clocks are synced and the workers idle, so any
	// node activity the handler triggers (an Inject's threshold flood,
	// say) emits hooks directly — buffering it under the home shard's
	// stale last-fired key would misplace it in the canonical order.
	inGlobal bool

	// canonical-key state: per-creator monotone sequence counters.
	// nodeSeq[i] is touched only by node i's shard (or by the
	// coordinator at a barrier), arrSeq only by the arrival puller.
	nodeSeq []uint64
	arrSeq  uint64

	// statsPer accumulates run statistics on the node each event
	// executes at; Stats() merges in node-ID order, so even the float
	// sums are bit-identical at every shard count.
	statsPer []metrics.RunStats

	// crossing detection state per node
	above     []bool
	crossEvs  []sim.Event
	crossings []crossing // one persistent downward-crossing runner per node

	// single-shard runs keep the one reusable pull-as-you-go arrival
	// runner (at most one arrival is pending at a time).
	arrival *arrival

	// generation per node: bumped on kill so stale timers no-op
	gen []int

	// extra observability
	protoName string

	// scope[i] is the neighbourhood node i floods: the whole mesh, its
	// FloodRadius ball, or its Groups group. Nodes with the same
	// neighbourhood share one member list.
	scope []floodScope

	// coordinator state (shards > 1)
	pull        workload.Task
	pullOK      bool
	pullSrc     workload.Source
	emitScratch []emitRec

	// canceled is set when RunCtx stopped at a checkpoint because its
	// context was done; the partial stats skip validation.
	canceled bool
}

// Bin is one interval of the optional admission timeline.
type Bin struct {
	Start    sim.Time
	Offered  uint64
	Admitted uint64
}

// AdmissionProbability returns Admitted/Offered for the bin (1 if empty,
// so idle intervals plot as "no loss").
func (b Bin) AdmissionProbability() float64 {
	if b.Offered == 0 {
		return 1
	}
	return float64(b.Admitted) / float64(b.Offered)
}

// New constructs an engine: one node and one Discovery per topology node,
// all attached and ready to Run.
func New(cfg Config, build Builder) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Graph.N()
	e := &Engine{
		cfg:        cfg,
		graph:      cfg.Graph,
		cost:       protocol.NewCostModel(cfg.Graph),
		nodes:      make([]node.Node, n),
		disco:      make([]protocol.Discovery, n),
		envs:       make([]*nodeEnv, n),
		build:      build,
		rerouteRnd: rng.New(cfg.Seed).Derive("engine"),
		nodeSeq:    make([]uint64, n),
		statsPer:   make([]metrics.RunStats, n),
		above:      make([]bool, n),
		crossEvs:   make([]sim.Event, n),
		crossings:  make([]crossing, n),
		gen:        make([]int, n),
	}
	e.shardOf = topology.ShardAssign(cfg.Graph, max(cfg.Shards, 1))
	e.shards = int(e.shardOf[n-1]) + 1 // bands are contiguous: last node holds the max
	e.inline = e.shards == 1 || cfg.InlineHooks
	e.delta = sim.Time(math.Inf(1)) // mutually unreachable shards never interact
	e.ctxs = make([]*shardCtx, e.shards)
	if e.shards == 1 {
		// Pending events scale with node count (in-flight deliveries,
		// per-node timers and crossing events); the hint absorbs the
		// ramp-up regrowth without a measurable footprint for small runs.
		e.sched = sim.NewScheduler(8 * n)
		e.ctxs[0] = &shardCtx{e: e, sched: e.sched}
	} else {
		e.sched = sim.NewScheduler(64) // external control events only
		counts := make([]int, e.shards)
		for _, s := range e.shardOf {
			counts[s]++
		}
		for k := range e.ctxs {
			// Per-shard capacity hint: this shard's node count, not the
			// global mesh — a shard holds only its own nodes' events.
			e.ctxs[k] = &shardCtx{e: e, idx: int32(k), sched: sim.NewScheduler(8 * counts[k])}
		}
		if mc := topology.MinCrossShardDist(cfg.Graph, e.shardOf); mc > 0 {
			e.delta = cfg.HopDelay * sim.Time(mc)
		}
	}
	if cfg.LossProb > 0 {
		e.lossRnd = make([]rng.Light, n)
		for i := range e.lossRnd {
			e.lossRnd[i] = rng.SeedLight(uint64(cfg.Seed), uint64(i))
		}
	}
	for i := 0; i < n; i++ {
		e.crossings[i] = crossing{e: e, id: topology.NodeID(i)}
		capacity := cfg.QueueCapacity
		if cfg.Capacities != nil && cfg.Capacities[i] > 0 {
			capacity = cfg.Capacities[i]
		}
		e.nodes[i] = *node.New(topology.NodeID(i), capacity)
		e.envs[i] = &nodeEnv{engine: e, id: topology.NodeID(i), ctx: e.ctxs[e.shardOf[i]]}
	}
	e.scope = make([]floodScope, n)
	switch {
	case cfg.FloodRadius > 0:
		e.buildRadiusScopes()
	case cfg.Groups != nil:
		e.buildGroupScopes()
	default:
		all := floodScope{members: make([]topology.NodeID, n), cost: e.cost.FloodUnits}
		for i := range all.members {
			all.members[i] = topology.NodeID(i)
			e.scope[i] = all
		}
	}
	// Attach after all shard state exists: protocols may arm timers (and
	// even send) from Attach, and those events need their canonical keys
	// and home queues.
	for i := 0; i < n; i++ {
		e.disco[i] = build()
		e.disco[i].Attach(e.envs[i])
	}
	// Any cross-shard sends a protocol issued from Attach go onto their
	// home queues now, before the first phase can advance a clock past
	// their delivery times. (Protocols that want attach-time sends seen
	// by observers bound after New — the oracle idiom — should defer
	// them to an After(0) timer instead, as protocol/dht does.)
	e.flushMail()
	e.protoName = e.disco[0].Name()
	return e
}

// floodScope is one node's flood neighbourhood, read-only once built.
type floodScope struct {
	// members are the nodes a flood reaches, in ascending ID — the
	// deterministic order every downstream loss-RNG draw depends on. The
	// list may contain the sender, which is skipped at send time: that is
	// what lets the nodes of a group share one backing array.
	members []topology.NodeID
	// dist[k] is the hop distance from the scope's owner to members[k],
	// recorded free during the radius BFS; nil for shared scopes, whose
	// floods look distances up in the live graph.
	dist []int32
	// cost is what one flood is charged: the links of the subgraph the
	// members induce (the paper's #links for the whole mesh).
	cost float64
}

// buildGroupScopes derives flood scopes from the group partition: a
// flood reaches the sender's group and is charged the group's internal
// links. Each group's list is built once and shared by its members — a
// list per node is N × |group| entries, 5.8 GB on a 316×316 mesh in 16
// groups.
func (e *Engine) buildGroupScopes() {
	groups := map[int]*floodScope{}
	for i, g := range e.cfg.Groups {
		sc := groups[g]
		if sc == nil {
			sc = &floodScope{}
			groups[g] = sc
		}
		id := topology.NodeID(i)
		sc.members = append(sc.members, id)
		for _, nb := range e.cfg.Graph.Neighbors(id) {
			if e.cfg.Groups[nb] == g && id < nb {
				sc.cost++
			}
		}
	}
	for i, g := range e.cfg.Groups {
		e.scope[i] = *groups[g] // after the last append: the list is final
	}
}

// buildRadiusScopes precomputes, for each node, the multicast-group
// members (nodes within FloodRadius hops, itself included), the scoped
// flood cost (links of the induced subgraph — the links a radius-bounded
// flood actually crosses), and the hop distance to every member, which
// the BFS discovers anyway. Keeping those distances lets the delivery
// hot path skip Dist entirely while the graph is unmutated — on a
// 100k-node mesh, lazily materializing a 100k-entry distance row per
// flooding node is the difference between running and thrashing.
//
// It runs a radius-bounded BFS per source over a stamped visited array
// instead of querying the all-pairs distance matrix: cost O(N · |scope|)
// with no per-source map and — critically for large meshes — no N²
// matrix materialization just to set up scopes.
func (e *Engine) buildRadiusScopes() {
	n := e.cfg.Graph.N()
	r := e.cfg.FloodRadius
	stamp := make([]int, n) // stamp[v] == cur ⇔ v is in the current scope
	depth := make([]int, n)
	queue := make([]topology.NodeID, 0, 64)
	for i := 0; i < n; i++ {
		src := topology.NodeID(i)
		cur := i + 1 // unique per source; zero value means "unvisited"
		queue = append(queue[:0], src)
		stamp[src], depth[src] = cur, 0
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if depth[u] == r {
				continue
			}
			for _, nb := range e.cfg.Graph.Neighbors(u) {
				if stamp[nb] != cur {
					stamp[nb], depth[nb] = cur, depth[u]+1
					queue = append(queue, nb)
				}
			}
		}
		members := append([]topology.NodeID(nil), queue...)
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
		sc := &e.scope[i]
		sc.members, sc.dist = members, make([]int32, len(members))
		for k, m := range members {
			sc.dist[k] = int32(depth[m])
			for _, nb := range e.cfg.Graph.Neighbors(m) {
				if stamp[nb] == cur && m < nb {
					sc.cost++
				}
			}
		}
	}
}

// dist returns the live hop distance between two nodes. While the
// configured graph is unmutated and scopes exist, distances to scope
// members come from the scope tables (bit-identical to a BFS, no row
// materialization); after the first CutLink/RestoreLink every lookup
// goes to the live graph.
func (e *Engine) dist(from, to topology.NodeID) int {
	if sc := &e.scope[from]; sc.dist != nil && !e.ownsGraph {
		i := sort.Search(len(sc.members), func(i int) bool { return sc.members[i] >= to })
		if i < len(sc.members) && sc.members[i] == to {
			return int(sc.dist[i])
		}
	}
	return e.graph.Dist(from, to)
}

// ProtocolName returns the Name() of the protocol under test.
func (e *Engine) ProtocolName() string { return e.protoName }

// Scheduler exposes the clock for attack injectors and tests. In a
// sharded engine this is the global queue: events scheduled here run
// alone at phase barriers, with every shard clock synced to their
// instant — manual RunUntil driving is a single-shard facility.
func (e *Engine) Scheduler() *sim.Scheduler { return e.sched }

// Shards returns the effective shard count (1 for the classic kernel).
func (e *Engine) Shards() int { return e.shards }

// Node returns the i-th node for inspection.
func (e *Engine) Node(id topology.NodeID) *node.Node { return &e.nodes[id] }

// Discovery returns the protocol instance on a node, for inspection.
func (e *Engine) Discovery(id topology.NodeID) protocol.Discovery { return e.disco[id] }

// Cost returns the message cost model in force.
func (e *Engine) Cost() protocol.CostModel { return e.cost }

// measuring reports whether stats should be recorded at time t.
func (e *Engine) measuring(t sim.Time) bool {
	return t >= e.cfg.Warmup && t < e.cfg.Duration
}

// settleEnd sizes the post-Duration grace window: long enough for every
// in-flight delivery and migration try (each try is a transfer leg plus
// a result leg, ≤ 2 × diameter hops) to land. Above diamExactLimit
// nodes the exact diameter gives way to the two-BFS upper bound — any
// upper bound settles correctly, and the threshold depends only on N,
// so the window is identical at every shard count.
func (e *Engine) settleEnd() sim.Time {
	var diam int
	if e.graph.N() > diamExactLimit {
		diam = e.graph.DiameterUpperBound()
	} else {
		diam = e.graph.Diameter()
	}
	if diam < 0 {
		diam = e.graph.N()
	}
	tries := e.cfg.MaxTries
	if tries < 1 {
		tries = 1
	}
	return e.cfg.Duration + 2*e.cfg.HopDelay*sim.Time(diam)*sim.Time(tries) + 1
}

// Progress is one run-progress snapshot handed to Config.OnProgress.
type Progress struct {
	Now sim.Time // sim clock at the checkpoint
	End sim.Time // cfg.Duration; the clock runs past it while settling
	// Events is scheduler events fired so far, across every queue — a
	// measure of kernel effort, not of traffic: one event delivers a
	// whole hop-ring of a flood (see MessagesDelivered for messages).
	Events uint64
	Stats  metrics.RunStats
}

// Run drives tasks from src until cfg.Duration, lets in-flight work
// settle, and returns the run's statistics. It may be called once.
func (e *Engine) Run(src workload.Source) metrics.RunStats {
	return e.RunCtx(context.Background(), src)
}

// RunCtx is Run under cooperative cancellation: the context is polled
// only at quiescent checkpoints — chunk boundaries on the classic
// kernel, phase barriers on the sharded one — so an uncancelled run
// fires exactly the same events in exactly the same order as Run, and
// determinism is untouched. When the context is cancelled the loop
// stops at the next checkpoint, Canceled() reports true, and the
// returned stats are the partial accumulation so far: in-flight work
// has not settled, so they must not be validated, compared, or blessed.
func (e *Engine) RunCtx(ctx context.Context, src workload.Source) metrics.RunStats {
	advance := e.runTo
	if e.shards == 1 {
		e.scheduleNext(src)
	} else {
		e.startWorkers()
		defer e.stopWorkers()
		e.pullSrc = src
		e.pull, e.pullOK = src.Next()
		advance = e.coordinate
	}
	// The measurement window, then the grace period: no new arrivals,
	// but in-flight migrations and deliveries complete (message costs
	// incurred after Duration are outside the measurement window by
	// definition). settleEnd reads the live graph, so it is computed
	// only after the measurement window closed.
	if advance(ctx, e.cfg.Duration) {
		advance(ctx, e.settleEnd())
	}
	st := e.Stats()
	if !e.canceled {
		if err := st.Validate(); err != nil {
			panic(err) // engine bug, not user error: fail loudly
		}
	}
	return st
}

// Canceled reports whether the last Run/RunCtx stopped early because
// its context was cancelled.
func (e *Engine) Canceled() bool { return e.canceled }

// checkpointEvery returns the sim-time stride between run-loop
// checkpoints (progress snapshots and cancellation polls).
func (e *Engine) checkpointEvery() sim.Time {
	return e.cfg.Duration / 64
}

// firedTotal sums events executed across the global and shard queues.
func (e *Engine) firedTotal() uint64 {
	n := e.sched.Fired()
	if e.shards > 1 {
		for _, c := range e.ctxs {
			n += c.sched.Fired()
		}
	}
	return n
}

// checkpoint polls the context and emits a progress snapshot. It must
// only be called from quiescent points (no event mid-execution); it
// reports false when the run should stop.
func (e *Engine) checkpoint(ctx context.Context, now sim.Time) bool {
	if e.cfg.OnProgress != nil {
		e.cfg.OnProgress(Progress{Now: now, End: e.cfg.Duration, Events: e.firedTotal(), Stats: e.Stats()})
	}
	if ctx.Err() != nil {
		e.canceled = true
		return false
	}
	return true
}

// runTo is the classic kernel's counterpart of coordinate: it runs the
// one queue up to `until`, pausing at a checkpoint every checkpointEvery
// sim-seconds, and reports false when one stopped the run. The pauses
// change nothing: RunUntil(a) then RunUntil(b) fires the same sequence
// as RunUntil(b), the heap order being a pure function of what is pending.
func (e *Engine) runTo(ctx context.Context, until sim.Time) bool {
	step := e.checkpointEvery()
	for t := e.sched.Now() + step; t < until; t += step {
		e.sched.RunUntil(t)
		if !e.checkpoint(ctx, t) {
			return false
		}
	}
	e.sched.RunUntil(until)
	return e.checkpoint(ctx, until)
}

// Stats returns the statistics accumulated so far (useful mid-run in
// attack scenarios driving the scheduler manually, or from a study
// ticker — which in a sharded run fires at a barrier, when per-node
// accumulators are quiescent). Per-node stats merge in node-ID order,
// so even floating-point sums are independent of the shard count.
func (e *Engine) Stats() metrics.RunStats {
	var out metrics.RunStats
	for i := range e.statsPer {
		out.Add(e.statsPer[i])
	}
	return out
}

// KernelStats aggregates scheduler effort counters across the global
// queue and every shard queue.
func (e *Engine) KernelStats() sim.KernelStats {
	ks := e.sched.KernelStats()
	if e.shards > 1 {
		for _, c := range e.ctxs {
			k := c.sched.KernelStats()
			ks.Scheduled += k.Scheduled
			ks.Fired += k.Fired
			ks.Reused += k.Reused
			ks.PoolSize += k.PoolSize
			ks.Pending += k.Pending
		}
	}
	return ks
}

// MessagesDelivered returns how many message copies have reached a live
// destination's protocol so far. Since a wave delivers a whole hop-ring
// per event, KernelStats().Fired no longer approximates this; the
// counter is diagnostic and never read on the deterministic path. Like
// Stats, read it from a quiescent point.
func (e *Engine) MessagesDelivered() uint64 {
	var n uint64
	for _, c := range e.ctxs {
		n += c.delivered
	}
	return n
}

// scheduleNext arms the single-shard arrival runner with the next task
// (sharded runs pre-pull arrivals phase by phase instead; see
// pullArrivals).
func (e *Engine) scheduleNext(src workload.Source) {
	t, ok := src.Next()
	if !ok || t.Arrive >= e.cfg.Duration {
		return
	}
	if e.arrival == nil {
		e.arrival = &arrival{e: e}
	}
	e.arrival.src = src
	e.arrival.task = t
	e.sched.AtKeyed(t.Arrive, srcArrival, e.arrSeq, e.arrival)
	e.arrSeq++
}

// arrival is the engine's single reusable arrival runner: the workload
// source emits tasks in time order and only the next one is ever
// scheduled, so one object serves the whole run with zero allocations.
type arrival struct {
	e    *Engine
	src  workload.Source
	task workload.Task
}

// Fire implements sim.Runner.
func (a *arrival) Fire(now sim.Time) {
	e, t := a.e, a.task
	exec, mode := e.resolveArrival(t)
	e.handleArrival(e.ctxs[0], now, t, exec, mode)
	e.scheduleNext(a.src)
}

// binFor returns the timeline bin covering time t on the executing
// shard's slice of the timeline, or nil if binning is off. Bins are
// appended lazily; Bins() merges the slices by interval index.
func (e *Engine) binFor(c *shardCtx, t sim.Time) *Bin {
	if e.cfg.BinWidth <= 0 {
		return nil
	}
	idx := int(t / e.cfg.BinWidth)
	for len(c.bins) <= idx {
		c.bins = append(c.bins, Bin{Start: sim.Time(len(c.bins)) * e.cfg.BinWidth})
	}
	return &c.bins[idx]
}

// Bins returns the admission timeline (empty unless cfg.BinWidth > 0).
// Bin counts are unsigned sums merged by interval index, so the result
// is identical at every shard count.
func (e *Engine) Bins() []Bin {
	if e.shards == 1 {
		return e.ctxs[0].bins
	}
	maxLen := 0
	for _, c := range e.ctxs {
		if len(c.bins) > maxLen {
			maxLen = len(c.bins)
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make([]Bin, maxLen)
	for i := range out {
		out[i].Start = sim.Time(i) * e.cfg.BinWidth
	}
	for _, c := range e.ctxs {
		for i, b := range c.bins {
			out[i].Offered += b.Offered
			out[i].Admitted += b.Admitted
		}
	}
	return out
}

// Attrs returns a node's current placement attributes (zero when the
// engine runs unconstrained).
func (e *Engine) Attrs(id topology.NodeID) resource.Attrs {
	if e.cfg.Attrs == nil {
		return resource.Attrs{}
	}
	return e.cfg.Attrs[id]
}

// SetAttrs changes a node's attributes at runtime — the hook security
// attacks use to downgrade a host's clearance mid-run. It is a no-op
// refinement when the engine was built without attributes. Like
// Kill/Revive it must run from a global (external) event: attribute
// state is read cross-shard mid-phase and may only change at barriers.
func (e *Engine) SetAttrs(id topology.NodeID, a resource.Attrs) {
	if e.cfg.Attrs == nil {
		e.cfg.Attrs = make([]resource.Attrs, e.cfg.Graph.N())
	}
	e.cfg.Attrs[id] = a
}

// satisfies reports whether node id can host a task requiring req.
func (e *Engine) satisfies(id topology.NodeID, req resource.Attrs) bool {
	if e.cfg.Attrs == nil {
		return req == (resource.Attrs{})
	}
	return e.cfg.Attrs[id].Satisfies(req)
}

// resolveArrival decides where a task actually lands: its target, a
// rerouted alive node, or nowhere (with the reject mode saying why).
// The reroute draw comes from a dedicated stream in arrival order; the
// single-shard kernel resolves at fire time, the coordinator at pull
// time — between phases — and both see the same alive set because
// kills/revives are global events that bound every phase.
func (e *Engine) resolveArrival(t workload.Task) (topology.NodeID, uint8) {
	id := t.Node
	if e.nodes[id].Alive() {
		return id, arrNormal
	}
	if !e.cfg.RerouteDeadArrivals {
		return id, arrRejectDead
	}
	alt, ok := e.randomAlive()
	if !ok {
		return id, arrRejectNoAlive
	}
	return alt, arrNormal
}

// handleArrival runs a resolved arrival on its execution node's shard.
func (e *Engine) handleArrival(c *shardCtx, now sim.Time, t workload.Task,
	id topology.NodeID, mode uint8) {
	measured := e.measuring(now)
	st := &e.statsPer[id]
	if measured {
		st.Offered++
	}
	if b := e.binFor(c, now); b != nil {
		b.Offered++
	}
	e.traceCtx(c, trace.Event{At: now, Kind: trace.Arrival, Node: t.Node, Peer: -1, Size: t.Size})
	switch mode {
	case arrRejectDead:
		if measured {
			st.Rejected++
		}
		e.traceCtx(c, trace.Event{At: now, Kind: trace.Reject, Node: id, Peer: -1, Size: t.Size, Info: "dead-node"})
		e.outcomeCtx(c, t, false)
		return
	case arrRejectNoAlive:
		if measured {
			st.Rejected++
		}
		e.traceCtx(c, trace.Event{At: now, Kind: trace.Reject, Node: id, Peer: -1, Size: t.Size, Info: "no-alive-node"})
		e.outcomeCtx(c, t, false)
		return
	}

	// Let the discovery protocol see the arrival first (Algorithm H's
	// trigger is "whenever a task arrives"). A node that cannot satisfy
	// the task's attribute requirements (e.g. insufficient security
	// level) has trivially exceeded that resource's threshold, so the
	// arrival is presented as maximal demand — this is what makes
	// resource-triggered migration work even when CPU queues are idle.
	compatible := e.satisfies(id, t.Require)
	if compatible {
		e.disco[id].OnArrival(t.Size)
	} else {
		e.disco[id].OnArrival(e.cfg.QueueCapacity)
	}

	if compatible && e.nodes[id].Accept(now, t.Size) {
		if measured {
			st.Admitted++
		}
		if b := e.binFor(c, now); b != nil {
			b.Admitted++
		}
		e.traceCtx(c, trace.Event{At: now, Kind: trace.AdmitLocal, Node: id, Peer: -1, Size: t.Size})
		e.outcomeCtx(c, t, true)
		e.afterAccept(c, now, id)
		return
	}
	e.tryMigrationN(c, now, id, t, measured, 1)
}

// tryMigrationN implements one migration try: ask the local protocol for
// candidates, ship the task to the best one, and — within cfg.MaxTries —
// walk to the next candidate when a destination turns out to be full
// (Section 3's behaviour; the Section 5 simulation uses the default of a
// single try). The try is two timed legs: the transfer to the candidate
// (migration, executing on the target's shard) and the outcome report
// back (migResult, executing on the origin's shard) — matching the
// paper's architecture, where the origin learns the verdict a network
// round-trip later, and giving the conservative coordinator real
// latency to parallelize under.
func (e *Engine) tryMigrationN(c *shardCtx, now sim.Time, from topology.NodeID,
	t workload.Task, measured bool, attempt int) {
	cands := e.disco[from].Candidates(t.Size)
	var target topology.NodeID = -1
	for _, cand := range cands {
		// A candidate must be alive, attribute-compatible, and reachable
		// in the live overlay: a partition leaves stale availability-list
		// entries pointing at the far side, and negotiating with a node
		// no path reaches is impossible.
		if cand.ID != from && e.nodes[cand.ID].Alive() && e.satisfies(cand.ID, t.Require) &&
			e.dist(from, cand.ID) >= 0 {
			target = cand.ID
			break
		}
	}
	if target < 0 {
		if measured {
			e.statsPer[from].Rejected++
		}
		e.traceCtx(c, trace.Event{At: now, Kind: trace.Reject, Node: from, Peer: -1, Size: t.Size, Info: "no-candidate"})
		e.outcomeCtx(c, t, false)
		return
	}
	e.traceCtx(c, trace.Event{At: now, Kind: trace.MigrateTry, Node: from, Peer: target, Size: t.Size})

	// Admission negotiation between the two admission controls.
	if measured {
		e.statsPer[from].ControlMsgs++
		e.statsPer[from].MessageUnits += e.cost.ControlUnits
	}

	dist := e.dist(from, target)
	if dist < 0 {
		dist = e.graph.N() // can't happen (filter above); worst-case latency
	}
	delay := e.cfg.HopDelay * sim.Time(dist)

	// Schedule the transfer completion on a pooled runner: migrations are
	// the second-hottest event class after deliveries, and the closure
	// this used to allocate per try dominated the sweep's per-cell
	// allocation count.
	mg := c.freeMigrations
	if mg == nil {
		mg = &migration{e: e}
	} else {
		c.freeMigrations = mg.next
	}
	mg.from, mg.target, mg.task = from, target, t
	mg.measured, mg.attempt = measured, attempt
	mg.fromGen = e.gen[from]
	mg.arrivedAt = now // bin by arrival time, not completion time
	e.schedule(c, target, now+delay, int32(from), e.nodeSeq[from], mg)
	e.nodeSeq[from]++
}

// migration is a pooled sim.Runner carrying one in-flight migration
// transfer, executing on the target's shard; recycled through the
// executing shard's free list like wave.
type migration struct {
	e         *Engine
	from      topology.NodeID
	target    topology.NodeID
	task      workload.Task
	measured  bool
	attempt   int
	fromGen   int
	arrivedAt sim.Time
	next      *migration // free-list link
}

// Fire implements sim.Runner: complete the transfer at the destination
// and send the verdict back to the origin. The runner returns itself to
// the executing shard's pool first.
func (mg *migration) Fire(arr sim.Time) {
	e, from, target, t := mg.e, mg.from, mg.target, mg.task
	measured, attempt, fromGen, arrivedAt := mg.measured, mg.attempt, mg.fromGen, mg.arrivedAt
	c := e.ctxOf(target)
	mg.task = workload.Task{}
	mg.next = c.freeMigrations
	c.freeMigrations = mg

	// Re-check attributes at acceptance time: a security downgrade
	// during the transfer voids the placement.
	ok := e.nodes[target].Alive() && e.satisfies(target, t.Require) &&
		e.nodes[target].Accept(arr, t.Size)
	if ok {
		if measured {
			e.statsPer[target].Admitted++
			e.statsPer[target].Migrated++
		}
		if b := e.binFor(c, arrivedAt); b != nil {
			b.Admitted++
		}
		e.traceCtx(c, trace.Event{At: arr, Kind: trace.MigrateOK, Node: from, Peer: target, Size: t.Size})
		e.outcomeCtx(c, t, true)
		e.afterAccept(c, arr, target)
	} else {
		if measured {
			e.statsPer[target].MigrateFail++
		}
		e.traceCtx(c, trace.Event{At: arr, Kind: trace.MigrateFail, Node: from, Peer: target, Size: t.Size})
	}

	back := e.dist(target, from)
	if back < 0 {
		// The return path was severed while the task was in flight: the
		// origin can never learn the verdict. An accepted task simply
		// stays (its outcome is already reported); a failed one is
		// finally rejected here — there is no one left to retry it.
		if !ok {
			if measured {
				e.statsPer[target].Rejected++
			}
			e.traceCtx(c, trace.Event{At: arr, Kind: trace.Reject, Node: from, Peer: target,
				Size: t.Size, Info: "origin-unreachable"})
			e.outcomeCtx(c, t, false)
		}
		return
	}
	mr := c.freeResults
	if mr == nil {
		mr = &migResult{e: e}
	} else {
		c.freeResults = mr.next
	}
	mr.from, mr.target, mr.task = from, target, t
	mr.measured, mr.attempt, mr.fromGen = measured, attempt, fromGen
	mr.ok = ok
	e.schedule(c, from, arr+e.cfg.HopDelay*sim.Time(back), int32(target), e.nodeSeq[target], mr)
	e.nodeSeq[target]++
}

// migResult is the second migration leg: the verdict arriving back at
// the origin, executing on the origin's shard.
type migResult struct {
	e        *Engine
	from     topology.NodeID
	target   topology.NodeID
	task     workload.Task
	measured bool
	attempt  int
	fromGen  int
	ok       bool
	next     *migResult // free-list link
}

// Fire implements sim.Runner: tell the origin's protocol the verdict —
// unless the origin died meanwhile — and on failure walk to the next
// candidate or finally reject. A failed try evicts the stale candidate,
// so the retry naturally walks down the list.
func (mr *migResult) Fire(at sim.Time) {
	e, from, target, t := mr.e, mr.from, mr.target, mr.task
	measured, attempt, fromGen, ok := mr.measured, mr.attempt, mr.fromGen, mr.ok
	c := e.ctxOf(from)
	mr.task = workload.Task{}
	mr.next = c.freeResults
	c.freeResults = mr

	originUp := e.gen[from] == fromGen && e.nodes[from].Alive()
	if originUp {
		e.disco[from].OnMigrationOutcome(target, t.Size, ok)
	}
	if ok {
		return // outcome reported when the target accepted
	}
	maxTries := e.cfg.MaxTries
	if maxTries <= 0 {
		maxTries = 1
	}
	if originUp && attempt < maxTries {
		e.tryMigrationN(c, at, from, t, measured, attempt+1)
		return
	}
	if measured {
		e.statsPer[from].Rejected++
	}
	e.traceCtx(c, trace.Event{At: at, Kind: trace.Reject, Node: from, Peer: -1,
		Size: t.Size, Info: "tries-exhausted"})
	e.outcomeCtx(c, t, false)
}

// randomAlive draws a uniformly random alive node: the k-th alive one in
// ID order, k drawn from rerouteRnd.
func (e *Engine) randomAlive() (topology.NodeID, bool) {
	alive := e.AliveCount()
	if alive == 0 {
		return 0, false
	}
	k := e.rerouteRnd.Intn(alive)
	for i := range e.nodes {
		if e.nodes[i].Alive() {
			if k == 0 {
				return topology.NodeID(i), true
			}
			k--
		}
	}
	panic("engine: alive count changed under randomAlive")
}

// afterAccept re-evaluates the node's threshold state after new work was
// queued. c is the emission context — nil when called from a global
// event (Inject at a barrier).
func (e *Engine) afterAccept(c *shardCtx, now sim.Time, id topology.NodeID) {
	thr := e.cfg.Threshold * e.nodes[id].Capacity()
	backlog := e.nodes[id].Backlog(now)
	if backlog <= thr {
		return
	}
	e.holdAbove(c, now, id, backlog-thr)
}

// holdAbove records that node id's backlog sits `over` seconds above its
// threshold: an upward crossing fires OnUsageCrossing(true) immediately,
// and the matching downward crossing is (re)scheduled for the
// (deterministic) time the queue drains back to the threshold.
func (e *Engine) holdAbove(c *shardCtx, now sim.Time, id topology.NodeID, over float64) {
	if !e.above[id] {
		e.above[id] = true
		e.traceCtx(c, trace.Event{At: now, Kind: trace.CrossUp, Node: id, Peer: -1})
		e.disco[id].OnUsageCrossing(true)
	}
	// Any previously scheduled downward crossing is stale because the
	// backlog grew or the threshold moved. Cancel is a generation-checked
	// no-op on fired or zero handles, so no liveness check is needed.
	// Each node has exactly one pending downward crossing at a time, so a
	// single persistent runner per node replaces the per-accept closure.
	// The crossing always lives on id's own shard — the one executing
	// this call — so the handle stays locally cancellable.
	dc := e.ctxOf(id)
	dc.sched.Cancel(e.crossEvs[id])
	cr := &e.crossings[id]
	cr.gen = e.gen[id]
	e.crossEvs[id] = dc.sched.AtKeyed(now+sim.Time(over), int32(id), e.nodeSeq[id], cr)
	e.nodeSeq[id]++
}

// resize changes node id's queue capacity mid-run (the elastic-capacity
// policy's hook) through the same crossing bookkeeping as an admission,
// so the I8 up/down alternation survives the threshold moving. Shrinking
// below the current backlog is clamped by the node (usage stays ≤ 1);
// after the resize the crossing state is re-evaluated in both
// directions: the pending drain-time crossing is stale the moment the
// threshold moves, and growing capacity can put usage below the
// threshold right now.
func (e *Engine) resize(c *shardCtx, now sim.Time, id topology.NodeID, want float64) bool {
	if !e.nodes[id].Alive() {
		return false
	}
	applied, ok := e.nodes[id].SetCapacity(now, want)
	if !ok {
		return false
	}
	e.traceCtx(c, trace.Event{At: now, Kind: trace.Resize, Node: id, Peer: -1, Size: applied})
	thr := e.cfg.Threshold * applied
	backlog := e.nodes[id].Backlog(now)
	if backlog > thr {
		e.holdAbove(c, now, id, backlog-thr)
	} else if e.above[id] {
		e.ctxOf(id).sched.Cancel(e.crossEvs[id])
		e.crossEvs[id] = sim.Event{}
		e.above[id] = false
		e.traceCtx(c, trace.Event{At: now, Kind: trace.CrossDown, Node: id, Peer: -1})
		e.disco[id].OnUsageCrossing(false)
	}
	return true
}

// crossing is the per-node downward-crossing runner: it fires when the
// queue drains back to the threshold level.
type crossing struct {
	e   *Engine
	id  topology.NodeID
	gen int // node generation at scheduling time; stale after Kill
}

// Fire implements sim.Runner.
func (c *crossing) Fire(at sim.Time) {
	e, id := c.e, c.id
	ctx := e.ctxOf(id)
	e.crossEvs[id] = sim.Event{}
	if e.gen[id] != c.gen || !e.nodes[id].Alive() || !e.above[id] {
		return
	}
	e.above[id] = false
	e.traceCtx(ctx, trace.Event{At: at, Kind: trace.CrossDown, Node: id, Peer: -1})
	e.disco[id].OnUsageCrossing(false)
}

// Inject adds up to size seconds of bogus work to node id's queue
// through the same bookkeeping as a real admission — threshold-crossing
// detection included — without touching the task statistics. This is
// the hook resource-exhaustion attacks must use: filling a queue behind
// the engine's back would leave the crossing state stale, and the
// protocol would keep pledging headroom the node no longer has (the
// invariant oracle's I2 check catches exactly that). Returns the amount
// actually injected (0 when the node is dead or full). Like Kill, it
// must run from a global event in a sharded engine.
func (e *Engine) Inject(now sim.Time, id topology.NodeID, size float64) float64 {
	n := &e.nodes[id]
	if !n.Alive() || size <= 0 {
		return 0
	}
	if h := n.Headroom(now); size > h {
		size = h
	}
	if size <= 0 || !n.Accept(now, size) {
		return 0
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.OnInject(now, id, size)
	}
	e.afterAccept(nil, now, id)
	return size
}

// Kill takes a node down: its queue is discarded, its protocol state is
// dropped, pending timers are disarmed, and it stops receiving messages.
// In a sharded engine Kill must run from a global (external) event —
// alive state is read cross-shard mid-phase and may only change at a
// barrier, which is exactly when global events fire.
func (e *Engine) Kill(id topology.NodeID) {
	if !e.nodes[id].Alive() {
		return
	}
	e.nodes[id].Kill(e.sched.Now())
	e.traceCtx(nil, trace.Event{At: e.sched.Now(), Kind: trace.NodeKill, Node: id, Peer: -1})
	e.disco[id].OnNodeDeath()
	e.gen[id]++
	e.above[id] = false
	e.ctxOf(id).sched.Cancel(e.crossEvs[id])
	e.crossEvs[id] = sim.Event{}
}

// Revive brings a node back with an empty queue and a brand-new protocol
// instance (the protocols are stateless across restarts by design).
// Same global-event discipline as Kill.
func (e *Engine) Revive(id topology.NodeID) {
	if e.nodes[id].Alive() {
		return
	}
	e.nodes[id].Revive(e.sched.Now())
	e.traceCtx(nil, trace.Event{At: e.sched.Now(), Kind: trace.NodeRevive, Node: id, Peer: -1})
	e.gen[id]++
	e.disco[id] = e.build()
	e.disco[id].Attach(e.envs[id])
}

// Graph returns the live topology view: cfg.Graph until the first link
// mutation, a private clone afterwards. Callers must treat it as
// read-only — mutate only through CutLink/RestoreLink so copy-on-write
// and trace events stay intact.
func (e *Engine) Graph() *topology.Graph { return e.graph }

// mutableGraph returns a graph the engine may mutate, cloning the
// (possibly shared) configured graph on first use. Callers check on the
// live view that the mutation is effective first: cloning for a no-op
// would also retire the scope-distance fast path for the rest of the run.
func (e *Engine) mutableGraph() *topology.Graph {
	if !e.ownsGraph {
		e.graph = e.graph.Clone()
		e.ownsGraph = true
	}
	return e.graph
}

// CutLink severs an overlay link mid-run — the link-level analogue of
// Kill (and under the same global-event discipline in sharded runs).
// From this instant, floods and unicasts reroute over the surviving
// links (longer per-hop latency) and deliveries to nodes left
// unreachable are dropped and counted as partition drops. Cutting links
// only grows distances, so the conservative lookahead stays valid.
// Idempotent; reports whether the link existed.
func (e *Engine) CutLink(a, b topology.NodeID) bool {
	e.graph.CheckPair(a, b)
	if !e.graph.HasLink(a, b) {
		return false
	}
	e.mutableGraph().CutLink(a, b)
	e.traceCtx(nil, trace.Event{At: e.sched.Now(), Kind: trace.LinkCut, Node: a, Peer: b})
	return true
}

// RestoreLink heals an overlay link mid-run — the link-level analogue of
// Revive (global-event discipline in sharded runs). A restored link can
// shrink cross-shard distances, so the lookahead drops to its floor of
// one hop for the rest of the run. Idempotent; reports whether the link
// was absent.
func (e *Engine) RestoreLink(a, b topology.NodeID) bool {
	e.graph.CheckPair(a, b)
	if e.graph.HasLink(a, b) {
		return false
	}
	e.mutableGraph().RestoreLink(a, b)
	if e.shards > 1 {
		e.delta = e.cfg.HopDelay
	}
	e.traceCtx(nil, trace.Event{At: e.sched.Now(), Kind: trace.LinkRestore, Node: a, Peer: b})
	return true
}

// AliveCount returns how many nodes are currently up.
func (e *Engine) AliveCount() int {
	n := 0
	for i := range e.nodes {
		if e.nodes[i].Alive() {
			n++
		}
	}
	return n
}

// nodeEnv implements protocol.Env for one node.
type nodeEnv struct {
	engine *Engine
	id     topology.NodeID
	ctx    *shardCtx
}

var _ protocol.Env = (*nodeEnv)(nil)

func (v *nodeEnv) Self() topology.NodeID { return v.id }
func (v *nodeEnv) Now() sim.Time         { return v.ctx.sched.Now() }

func (v *nodeEnv) Usage() float64 {
	return v.engine.nodes[v.id].Usage(v.Now())
}

func (v *nodeEnv) Headroom() float64 {
	return v.engine.nodes[v.id].Headroom(v.Now())
}

func (v *nodeEnv) Capacity() float64 {
	return v.engine.nodes[v.id].Capacity()
}

// SetCapacity implements protocol.CapacityScaler for the elastic policy.
func (v *nodeEnv) SetCapacity(c float64) bool {
	return v.engine.resize(v.ctx, v.ctx.sched.Now(), v.id, c)
}

// Flood sends m to every member of the sender's scope — the whole mesh,
// or the FloodRadius / Groups neighborhood — with per-hop latency, and
// charges the paper's flood cost (#links) once. Liveness is not consulted
// at send time: a member that is dead when its copy arrives resolves as
// a trace.DropDead drop then.
func (v *nodeEnv) Flood(m protocol.Message) {
	e, c := v.engine, v.ctx
	now := c.sched.Now()
	sc := &e.scope[v.id]
	if e.measuring(now) {
		st := &e.statsPer[v.id]
		st.MessageUnits += sc.cost
		switch m.Kind {
		case protocol.Help:
			st.HelpMsgs++
		case protocol.Advert:
			st.AdvertMsgs++
		case protocol.Pledge:
			st.PledgeMsgs++
		}
	}
	e.traceCtx(c, trace.Event{At: now, Kind: trace.MsgSend, Node: v.id, Peer: -1,
		Info: protocol.FloodInfo(m.Kind, m.Reissue)})
	// The radius BFS already measured these distances; reuse them unless
	// link churn invalidated the tables.
	useDist := sc.dist != nil && !e.ownsGraph
	buf := c.sendBuf[:0]
	for k, to := range sc.members {
		if to == v.id {
			continue
		}
		d := distUnknown
		if useDist {
			d = int(sc.dist[k])
		}
		buf = v.admit(buf, to, &m, d)
	}
	v.launch(buf, &m)
}

// Unicast delivers m to one node and charges the mean-shortest-path cost.
func (v *nodeEnv) Unicast(to topology.NodeID, m protocol.Message) {
	e, c := v.engine, v.ctx
	now := c.sched.Now()
	if e.measuring(now) {
		st := &e.statsPer[v.id]
		st.MessageUnits += e.cost.UnicastUnits
		switch m.Kind {
		case protocol.Pledge, protocol.DHTFound:
			st.PledgeMsgs++
		case protocol.Help, protocol.Relay, protocol.DHTGet:
			st.HelpMsgs++
		case protocol.Advert, protocol.DHTPut:
			st.AdvertMsgs++
		}
	}
	e.traceCtx(c, trace.Event{At: now, Kind: trace.MsgSend, Node: v.id, Peer: to,
		Info: m.Kind.String()})
	v.launch(v.admit(c.sendBuf[:0], to, &m, distUnknown), &m)
}

// waveMember is one recipient whose copy of a message survived the send
// side: who, which incarnation of it, how far away, and the canonical
// sequence number its delivery holds in the sender's namespace.
type waveMember struct {
	to   topology.NodeID
	gen  int
	seq  uint64
	hops int32
}

// admit is the send side of one message copy, shared by Flood and
// Unicast and run per recipient in ascending-ID order: the distance
// lookup (dist is the hop count when the caller already knows it,
// distUnknown otherwise), the partition drop, the observer's OnSend, and
// the loss draw. A surviving copy takes the sender's next sequence
// number and is appended to buf for launch; a dropped one consumes none.
func (v *nodeEnv) admit(buf []waveMember, to topology.NodeID, m *protocol.Message, dist int) []waveMember {
	e, c := v.engine, v.ctx
	now := c.sched.Now()
	if dist == distUnknown {
		dist = e.dist(v.id, to)
	}
	if dist < 0 {
		// Unreachable in the live overlay (link cut / partition): the
		// message is lost. Counted separately from probabilistic loss so
		// partition studies can report it.
		if e.measuring(now) {
			e.statsPer[v.id].PartitionDrops++
		}
		e.traceCtx(c, trace.Event{At: now, Kind: trace.MsgDrop, Node: v.id, Peer: to,
			Info: trace.DropPartition})
		e.observe(c, emitDropObs, now, v.id, to, m, trace.DropPartition)
		return buf
	}
	e.observe(c, emitSendObs, now, v.id, to, m, "")
	if e.cfg.LossProb > 0 && e.lossRnd[v.id].Bernoulli(e.cfg.LossProb) {
		// Datagram lost in transit. The observer is told — conservation
		// checks must see that a scheduled send was eaten, not delivered.
		e.observe(c, emitDropObs, now, v.id, to, m, trace.DropLoss)
		return buf
	}
	buf = append(buf, waveMember{to: to, gen: e.gen[to], seq: e.nodeSeq[v.id], hops: int32(dist)})
	e.nodeSeq[v.id]++
	return buf
}

// launch schedules the surviving copies of one send (buf, in send
// order) as one wave per destination shard. Shards are contiguous ID
// bands and sends go out in ascending ID, so a shard's recipients are
// one run of buf.
func (v *nodeEnv) launch(buf []waveMember, m *protocol.Message) {
	e, c := v.engine, v.ctx
	c.sendBuf = buf[:0] // keep whatever the scratch grew to
	now := c.sched.Now()
	for len(buf) > 0 {
		n := len(buf)
		if e.shards > 1 {
			n = 1
			for s := e.shardOf[buf[0].to]; n < len(buf) && e.shardOf[buf[n].to] == s; n++ {
			}
		}
		w := c.freeWaves
		if w == nil {
			w = &wave{e: e}
		} else {
			c.freeWaves = w.free
		}
		w.from, w.sent, w.m, w.next = v.id, now, *m, 0
		w.members = c.byRing(w.members[:0], buf[:n], now, e.cfg.HopDelay)
		first := &w.members[0]
		e.schedule(c, first.to, w.arrival(first), int32(v.id), first.seq, w)
		buf = buf[n:]
	}
}

// byRing appends run to dst stably ordered by arrival instant, i.e. as
// the sequence of hop-rings the message reaches. The arrival instant
// now + hop·d is monotone in the distance d, so a counting sort on d
// does it; distances whose instants coincide (hop = 0, or a delay below
// the clock's float resolution) share a ring, which keeps their members
// in send order exactly as the per-message keys rank them.
func (c *shardCtx) byRing(dst, run []waveMember, now, hop sim.Time) []waveMember {
	if len(run) == 1 {
		return append(dst, run[0])
	}
	maxd := 0
	for i := range run {
		if d := int(run[i].hops); d > maxd {
			maxd = d
		}
	}
	if len(c.ringAt) < maxd+2 {
		c.ringOf, c.ringAt = make([]int32, 2*maxd+2), make([]int32, 2*maxd+2)
	}
	// ringOf maps a distance to its ring; ringAt[r] ends up as the slot
	// in dst of ring r's next member.
	ringOf, ringAt := c.ringOf[:maxd+1], c.ringAt[:maxd+2]
	ringOf[0] = 0
	for d := 1; d <= maxd; d++ {
		ringOf[d] = ringOf[d-1]
		if now+hop*sim.Time(d) != now+hop*sim.Time(d-1) {
			ringOf[d]++
		}
	}
	for r := range ringAt {
		ringAt[r] = 0
	}
	for i := range run {
		ringAt[ringOf[run[i].hops]+1]++
	}
	for r := 1; r <= maxd; r++ {
		ringAt[r] += ringAt[r-1]
	}
	base := len(dst)
	dst = append(dst, run...)
	for i := range run {
		r := ringOf[run[i].hops]
		dst[base+int(ringAt[r])] = run[i]
		ringAt[r]++
	}
	return dst
}

// wave is a pooled sim.Runner carrying one send — a flood's copies for
// one destination shard, or a unicast as the one-member case — through
// the event queue once per hop-ring instead of once per recipient. It
// is scheduled under the canonical key of its next undelivered member,
// (arrival instant, sender, member seq), and Fire delivers that member's
// whole ring in seq order before re-arming for the next ring.
//
// The order of deliveries is exactly the per-message one. A key strictly
// between two members of a ring would need the ring's instant, the
// sender's namespace and a seq inside the send's own consecutive range:
// that is another copy of the same send, which sits in another ring (a
// different instant) or on another shard (a different queue). What is
// left is an event a handler schedules at this very instant that ranks
// before the next member — a zero-delay timer on a lower-ID node, say;
// Fire peeks the queue after every delivery and yields to it.
type wave struct {
	e       *Engine
	from    topology.NodeID
	sent    sim.Time
	m       protocol.Message
	members []waveMember // by (ring, seq)
	next    int          // first undelivered member
	free    *wave        // free-list link
}

// arrival is the instant mem's copy lands — the same expression, bit
// for bit, at launch and at every re-arm.
func (w *wave) arrival(mem *waveMember) sim.Time {
	return w.sent + w.e.cfg.HopDelay*sim.Time(mem.hops)
}

// Fire implements sim.Runner: deliver the ring that is due, then re-arm
// under the next member's key or return the wave to the executing
// shard's pool. While it runs, the shard's emission key is the
// per-message one, so barrier replay interleaves same-ring recipients
// that live on different shards exactly as a single queue fires them.
func (w *wave) Fire(at sim.Time) {
	e := w.e
	c := e.ctxOf(w.members[w.next].to)
	c.inWave = true
	for {
		mem := &w.members[w.next]
		w.next++
		c.msgKey = sim.EventKey{When: at, Src: int32(w.from), Seq: mem.seq}
		if e.gen[mem.to] == mem.gen && e.nodes[mem.to].Alive() {
			c.delivered++
			e.observe(c, emitDeliverObs, at, w.from, mem.to, &w.m, "")
			e.disco[mem.to].Deliver(w.m)
		} else {
			// Destination died or restarted in flight: the send the observer
			// saw resolves as a drop, never silently vanishes.
			e.observe(c, emitDropObs, at, w.from, mem.to, &w.m, trace.DropDead)
		}
		if w.next == len(w.members) {
			break
		}
		nx := &w.members[w.next]
		key := sim.EventKey{When: w.arrival(nx), Src: int32(w.from), Seq: nx.seq}
		if head, ok := c.sched.MinKey(); key.When != at || ok && head.Less(key) {
			c.inWave = false
			c.sched.AtKeyed(key.When, key.Src, key.Seq, w)
			return
		}
	}
	c.inWave = false
	w.m = protocol.Message{} // drop any View slice reference
	w.free = c.freeWaves
	c.freeWaves = w
}

// After implements protocol.Env timers scoped to the node's current
// incarnation: callbacks are suppressed after Kill. Timers always live
// on the owning node's shard.
func (v *nodeEnv) After(d sim.Time, fn func()) protocol.Timer {
	e, c := v.engine, v.ctx
	t := &simTimer{e: e, c: c, id: v.id, gen: e.gen[v.id], fn: fn}
	t.ev = c.sched.AtKeyed(c.sched.Now()+d, int32(v.id), e.nodeSeq[v.id], t)
	e.nodeSeq[v.id]++
	return t
}

// simTimer is both the sim.Runner fired by the scheduler and the
// protocol.Timer handle returned to the protocol — one allocation covers
// both roles. It is not pooled: protocols may hold Stop handles
// arbitrarily long, and Stop on a recycled timer would cancel the slot's
// next occupant (the sim.Event generation check protects the kernel, but
// not a reused simTimer's own ev field).
type simTimer struct {
	e   *Engine
	c   *shardCtx
	id  topology.NodeID
	gen int
	fn  func()
	ev  sim.Event
}

// Fire implements sim.Runner.
func (t *simTimer) Fire(sim.Time) {
	if t.e.gen[t.id] == t.gen && t.e.nodes[t.id].Alive() {
		t.fn()
	}
}

func (t *simTimer) Stop() { t.c.sched.Cancel(t.ev) }

// Reset implements protocol.ResettableTimer: re-arm this timer d seconds
// from now with its original callback, reusing the allocation. It
// performs the same scheduler operations (one Cancel, one keyed
// schedule consuming one sequence number) as the Stop+After sequence it
// replaces, so canonical event keys — and with them deterministic
// replay — are unchanged. It reports false when the timer belongs to a
// dead node incarnation; the caller then falls back to Env.After.
func (t *simTimer) Reset(d sim.Time) bool {
	e := t.e
	if e.gen[t.id] != t.gen || !e.nodes[t.id].Alive() {
		return false
	}
	t.c.sched.Cancel(t.ev)
	t.ev = t.c.sched.AtKeyed(t.c.sched.Now()+d, int32(t.id), e.nodeSeq[t.id], t)
	e.nodeSeq[t.id]++
	return true
}

var _ protocol.ResettableTimer = (*simTimer)(nil)
