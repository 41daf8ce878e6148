// Package engine wires the simulation together: it owns the event
// scheduler, the nodes, message delivery with per-hop latency, and one
// placement machine (internal/place) per node, which holds the node's
// Discovery instance and runs the arrival → local-admission →
// one-try-migration pipeline of the paper's Section 5 experiments; the
// engine times its requests and crossings. It also exposes Kill/Revive
// so the attack injectors can exercise the survivability path.
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
	"realtor/internal/place"
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
	// (Section 7), implemented in internal/protocol/hier. Mutually
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

	// OnOutcome, when set, is called once per task (warmup included)
	// with its final fate — admitted or rejected — and the verdict
	// instant at. Experiments bucket admission from it (by task class,
	// arrival interval, or arrival→placement latency) without touching
	// the aggregate stats.
	OnOutcome func(t workload.Task, at sim.Time, admitted bool)

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

// Engine is one configured simulation.
type Engine struct {
	cfg   Config
	sched *sim.Scheduler // external/global events; the only queue when shards == 1
	cost  protocol.CostModel
	nodes []node.Node // value slice: node state is contiguous in memory
	// machines[i] is node i's placement machine; it holds the node's
	// Discovery instance.
	machines []place.Machine
	envs     []*nodeEnv
	build    Builder

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

	// crossings[i] is node i's persistent falling-crossing runner
	crossings []crossing

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
		machines:   make([]place.Machine, n),
		envs:       make([]*nodeEnv, n),
		build:      build,
		rerouteRnd: rng.New(cfg.Seed).Derive("engine"),
		nodeSeq:    make([]uint64, n),
		statsPer:   make([]metrics.RunStats, n),
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
		d := build()
		e.machines[i] = place.New(topology.NodeID(i), e.envs[i], d, cfg.Threshold, cfg.MaxTries)
		d.Attach(e.envs[i])
	}
	// Any cross-shard sends a protocol issued from Attach go onto their
	// home queues now, before the first phase can advance a clock past
	// their delivery times. (Protocols that want attach-time sends seen
	// by observers bound after New — the oracle idiom — should defer
	// them to an After(0) timer instead, as protocol/dht does.)
	e.flushMail()
	e.protoName = e.machines[0].Disco.Name()
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
func (e *Engine) Discovery(id topology.NodeID) protocol.Discovery { return e.machines[id].Disco }

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
	return e.cfg.Duration + 2*e.cfg.HopDelay*sim.Time(diam)*sim.Time(place.Tries(e.cfg.MaxTries)) + 1
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
	exec, refuse := e.resolveArrival(t)
	e.machines[exec].Arrive(now, place.Task{Task: t}, refuse)
	e.scheduleNext(a.src)
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
// rerouted alive node, or nowhere (its target, with the reason it is
// refused).
// The reroute draw comes from a dedicated stream in arrival order; the
// single-shard kernel resolves at fire time, the coordinator at pull
// time — between phases — and both see the same alive set because
// kills/revives are global events that bound every phase.
func (e *Engine) resolveArrival(t workload.Task) (topology.NodeID, string) {
	id := t.Node
	if e.nodes[id].Alive() {
		return id, ""
	}
	if !e.cfg.RerouteDeadArrivals {
		return id, place.DeadNode
	}
	alt, ok := e.randomAlive()
	if !ok {
		return id, "no-alive-node"
	}
	return alt, ""
}

// migration is a pooled sim.Runner carrying one in-flight try through
// both legs of the paper's admission negotiation: the transfer to the
// target, executing on the target's shard, then the verdict back to the
// origin a network round trip after the try began, executing on the
// origin's shard — real latency for the conservative coordinator to
// parallelize under.
type migration struct {
	e       *Engine
	tr      place.Try
	fromGen int
	ok      bool       // the target admitted the task
	back    bool       // the verdict leg
	next    *migration // free-list link
}

// Fire implements sim.Runner. On the transfer leg the target's machine
// decides and the runner heads home with the verdict — unless no path
// leads there, in which case the target's machine resolves it. On the
// verdict leg the origin's machine learns it, if the origin is still
// the incarnation that tried, and the runner returns to the executing
// shard's pool.
func (mg *migration) Fire(at sim.Time) {
	e, tr := mg.e, mg.tr
	if mg.back {
		c := e.ctxOf(tr.From)
		up := e.gen[tr.From] == mg.fromGen && e.nodes[tr.From].Alive()
		ok := mg.ok
		mg.tr, mg.next = place.Try{}, c.freeMigrations
		c.freeMigrations = mg
		e.machines[tr.From].Verdict(at, tr, ok, up, "")
		return
	}
	c := e.ctxOf(tr.To)
	ok := e.machines[tr.To].Admit(at, tr)
	back := e.dist(tr.To, tr.From)
	if back < 0 {
		mg.tr, mg.next = place.Try{}, c.freeMigrations
		c.freeMigrations = mg
		e.machines[tr.To].Verdict(at, tr, ok, false, place.OriginUnreachable)
		return
	}
	mg.ok = ok
	mg.back = true
	e.schedule(c, tr.From, at+e.cfg.HopDelay*sim.Time(back), int32(tr.To), e.nodeSeq[tr.To], mg)
	e.nodeSeq[tr.To]++
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

// crossing is the per-node falling-crossing runner: it fires when the
// queue drains back to the threshold level. Each node has at most one
// armed at a time, so one persistent runner per node serves every arm.
type crossing struct {
	e   *Engine
	id  topology.NodeID
	gen int       // node generation at arming time; stale after Kill
	ev  sim.Event // the armed event
}

// Fire implements sim.Runner.
func (c *crossing) Fire(at sim.Time) {
	e, id := c.e, c.id
	c.ev = sim.Event{}
	if e.gen[id] == c.gen && e.nodes[id].Alive() {
		e.machines[id].Cross(at)
	}
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
	e.machines[id].Inject(now)
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
	e.machines[id].Kill()
	e.gen[id]++
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
	d := e.build()
	e.machines[id].Revive(d)
	d.Attach(e.envs[id])
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

// nodeEnv is also the node's place.Port: the placement machine's queue
// is the fluid node, its requests are migration runners, its crossing
// the node's persistent crossing runner.
var _ place.Port = (*nodeEnv)(nil)

func (v *nodeEnv) Backlog(now sim.Time) float64 { return v.engine.nodes[v.id].Backlog(now) }

func (v *nodeEnv) Accept(now sim.Time, t place.Task) bool {
	return v.engine.nodes[v.id].Accept(now, t.Size)
}

// Emit counts a placement step into the node's statistics — a task's
// steps count when it arrived inside the measurement window — and
// traces it.
func (v *nodeEnv) Emit(ev trace.Event, arrive sim.Time) {
	e := v.engine
	if arrive >= e.cfg.Warmup {
		st := &e.statsPer[v.id]
		switch ev.Kind {
		case trace.Arrival:
			st.Offered++
		case trace.AdmitLocal:
			st.Admitted++
		case trace.MigrateTry:
			// Admission negotiation between the two admission controls.
			st.ControlMsgs++
			st.MessageUnits += e.cost.ControlUnits
		case trace.MigrateOK:
			st.Admitted++
			st.Migrated++
		case trace.MigrateFail:
			st.MigrateFail++
		case trace.Reject:
			st.Rejected++
		}
	}
	if e.cfg.Trace != nil {
		e.traceCtx(v.ctx, ev)
	}
}

func (v *nodeEnv) Outcome(t place.Task, at sim.Time, admitted bool) {
	if v.engine.cfg.OnOutcome != nil {
		v.engine.outcomeCtx(v.ctx, t.Task, at, admitted)
	}
}

// Eligible: alive, attribute-compatible, and — for another node —
// reachable in the live overlay: a partition leaves stale
// availability-list entries pointing at the far side, and negotiating
// with a node no path reaches is impossible.
func (v *nodeEnv) Eligible(id topology.NodeID, req resource.Attrs) bool {
	e := v.engine
	return e.nodes[id].Alive() && e.satisfies(id, req) && (id == v.id || e.dist(v.id, id) >= 0)
}

// Request ships the try to its target on a pooled migration runner,
// HopDelay × distance away: migrations are the second-hottest event
// class after deliveries.
func (v *nodeEnv) Request(now sim.Time, tr place.Try) {
	e, c := v.engine, v.ctx
	dist := e.dist(tr.From, tr.To)
	if dist < 0 {
		dist = e.graph.N() // can't happen (Eligible); worst-case latency
	}
	mg := c.freeMigrations
	if mg == nil {
		mg = &migration{e: e}
	} else {
		c.freeMigrations = mg.next
	}
	mg.tr, mg.fromGen, mg.back = tr, e.gen[tr.From], false
	e.schedule(c, tr.To, now+e.cfg.HopDelay*sim.Time(dist), int32(tr.From), e.nodeSeq[tr.From], mg)
	e.nodeSeq[tr.From]++
}

// ArmCrossing re-keys the node's one crossing runner. The crossing
// always lives on the node's own shard, so the handle stays locally
// cancellable; Cancel is a generation-checked no-op on fired or zero
// handles.
func (v *nodeEnv) ArmCrossing(now sim.Time, over float64) {
	e, id, cr := v.engine, v.id, &v.engine.crossings[v.id]
	v.CancelCrossing()
	cr.gen = e.gen[id]
	cr.ev = v.ctx.sched.AtKeyed(now+sim.Time(over), int32(id), e.nodeSeq[id], cr)
	e.nodeSeq[id]++
}

func (v *nodeEnv) CancelCrossing() {
	cr := &v.engine.crossings[v.id]
	v.ctx.sched.Cancel(cr.ev)
	cr.ev = sim.Event{}
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
		Info: protocol.FloodInfo(m.Kind)})
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
			e.machines[mem.to].Disco.Deliver(w.m)
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
