// The discovery head-to-head (D1): flood-REALTOR against the two
// sub-linear contenders — the Chord-style DHT overlay and k-level
// hierarchical REALTOR — plus the one-level federation baseline, swept
// across mesh sizes from 2.5k to ~100k nodes and four adverse
// conditions. Every cell is one deterministic engine run; the table is
// the same bytes at any shard count (trace-derived latency included).
package experiment

import (
	"fmt"
	"strings"

	"realtor/internal/attack"
	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/federation"
	"realtor/internal/metrics"
	"realtor/internal/protocol"
	"realtor/internal/protocol/dht"
	"realtor/internal/protocol/hier"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// DiscoveryStudy parameterizes the sweep. Sides, Warmups, Durations and
// HotNodes are parallel per-size slices: the windows shrink as the mesh
// grows because one flood-REALTOR HELP at 100k nodes already costs ~10⁵
// message units — a short window is plenty to separate O(N) from
// O(log N) per-task cost.
type DiscoveryStudy struct {
	Sides     []int      // mesh side lengths (n = side²)
	Warmups   []sim.Time // per side
	Durations []sim.Time // per side
	HotNodes  []int      // per side: how many overload hot spots

	MeanSize    float64 // mean task size (seconds of work)
	HotTaskRate float64 // tasks/s aimed at each hot node
	Background  float64 // tasks/s spread uniformly over the mesh
	Seed        int64
}

// DefaultDiscovery returns the configuration behind results/discovery.txt:
// 2.5k / 10k / ~100k nodes and a hot-spot load that drives a handful of
// nodes over the help threshold so discovery traffic — not arrival
// bookkeeping — dominates the message bill.
func DefaultDiscovery() DiscoveryStudy {
	return DiscoveryStudy{
		Sides:       []int{50, 100, 316},
		Warmups:     []sim.Time{10, 10, 5},
		Durations:   []sim.Time{70, 50, 17},
		HotNodes:    []int{8, 8, 4},
		MeanSize:    2,
		HotTaskRate: 2,
		Background:  2,
		Seed:        8,
	}
}

// discoveryProtocolConfig is the shared parameter set: the paper's
// defaults except HelpMin raised to HelpInit, which caps a hot node's
// steady-state HELP/GET rate at 1/s. Without the floor, Algorithm H
// rewards every successful migration until a hot flood-REALTOR node
// floods many times a second — a rate no deployment would configure at
// 100k nodes, and one that only inflates the flood bill the sub-linear
// contenders are measured against.
func discoveryProtocolConfig() protocol.Config {
	pc := protocol.DefaultConfig()
	pc.HelpMin = pc.HelpInit
	return pc
}

// discoveryContender is one column of the head-to-head: a label, a
// Discovery factory, and the engine group map (nil for globally flooding
// protocols).
type discoveryContender struct {
	Label  string
	Build  engine.Builder
	Groups []int
}

// discoveryContenders assembles the four contenders for an n-node mesh
// of the given side. Escalation-style protocols share a 5-second rate
// limit so their upward traffic is comparable.
func discoveryContenders(side int) []discoveryContender {
	n := side * side
	pc := discoveryProtocolConfig()
	const escalateEvery = 5

	hierCfg := hier.Config{Protocol: pc, N: n, GroupSize: 32, Branch: 8, EscalateEvery: escalateEvery}
	// Federation wants roughly (side/16)² quadrants, but QuadrantGroups
	// needs the side divisible by the group grid — take the largest
	// divisor that fits (federation's fixed one-level fan-out over ever-
	// larger groups is exactly the scaling limit HIER removes).
	gr := side / 16
	if gr < 2 {
		gr = 2
	}
	for side%gr != 0 {
		gr--
	}
	fedGroups := federation.QuadrantGroups(side, side, gr, gr)
	fedGateways := federation.Gateways(fedGroups)
	return []discoveryContender{
		{
			Label: "REALTOR",
			Build: func() protocol.Discovery { return core.New(pc) },
		},
		{
			Label: "DHT",
			Build: dht.Build(dht.Config{Protocol: pc, N: n}),
		},
		{
			Label:  "HIER",
			Build:  hier.Build(hierCfg),
			Groups: hier.Groups(n, hierCfg.GroupSize),
		},
		{
			Label: "FED",
			Build: func() protocol.Discovery {
				return federation.New(federation.Config{
					Protocol:      pc,
					EscalateEvery: escalateEvery,
					GatewayFunc:   fedGateways,
				})
			},
			Groups: fedGroups,
		},
	}
}

// discoveryAttacks builds the four adverse conditions for one (n, window)
// cell. "churn" is churn in the Chord sense — membership flux — which is
// the scenario structured overlays are weakest under: a dead band home
// silently eats directory state until republication.
func discoveryAttacks(n int, warmup, duration sim.Time, seed int64) []struct {
	Label string
	Scen  attack.Scenario
} {
	w := float64(warmup)
	span := float64(duration) - w
	kills := n / 100
	if kills < 1 {
		kills = 1
	}
	exhaust := make([]attack.Scenario, 0, 4)
	for i := 0; i < 4; i++ {
		exhaust = append(exhaust, attack.Exhaust{
			Target:   topology.NodeID((2*i + 1) * n / 8),
			At:       warmup,
			Until:    duration,
			Interval: 1,
			Chunk:    30,
		})
	}
	return []struct {
		Label string
		Scen  attack.Scenario
	}{
		{"none", nil},
		{"kill", attack.RandomKill{
			Count:  kills,
			N:      n,
			At:     sim.Time(w + span*0.25),
			Revive: sim.Time(w + span*0.6),
			Seed:   seed,
		}},
		{"exhaust", attack.Composite{Label: "exhaust-4", Parts: exhaust}},
		{"churn", attack.NodeChurn{
			Start:    warmup,
			Until:    duration,
			Interval: 2,
			Down:     5,
			N:        n,
			Seed:     seed,
		}},
	}
}

// latKey identifies a task FIFO: the engine reports task events by
// (origin node, size), and sizes are exact float64 draws, so collisions
// between distinct in-flight tasks at one node are vanishingly rare and
// FIFO order breaks the tie deterministically when they do happen.
type latKey struct {
	node topology.NodeID
	size float64
}

// latencyTracker derives discovery latency from the trace stream:
// arrival → admit-local / migrate-ok, per task. Trace replay is
// canonical at any shard count, so the accumulated sum is too. Only
// tasks that *arrived* inside the measurement window count, matching
// the engine's own stats gating.
type latencyTracker struct {
	warmup, duration sim.Time
	pending          map[latKey][]sim.Time
	sum              float64
	n                uint64
}

func newLatencyTracker(warmup, duration sim.Time) *latencyTracker {
	return &latencyTracker{warmup: warmup, duration: duration, pending: map[latKey][]sim.Time{}}
}

// Record implements trace.Recorder.
func (l *latencyTracker) Record(e trace.Event) {
	switch e.Kind {
	case trace.Arrival:
		k := latKey{e.Node, e.Size}
		l.pending[k] = append(l.pending[k], e.At)
	case trace.AdmitLocal, trace.MigrateOK:
		if at, ok := l.pop(latKey{e.Node, e.Size}); ok && at >= l.warmup && at < l.duration {
			l.sum += float64(e.At - at)
			l.n++
		}
	case trace.Reject:
		l.pop(latKey{e.Node, e.Size})
	}
}

func (l *latencyTracker) pop(k latKey) (sim.Time, bool) {
	q := l.pending[k]
	if len(q) == 0 {
		return 0, false
	}
	at := q[0]
	if len(q) == 1 {
		delete(l.pending, k)
	} else {
		l.pending[k] = q[1:]
	}
	return at, true
}

// Mean returns the average latency over placed in-window tasks.
func (l *latencyTracker) Mean() float64 {
	if l.n == 0 {
		return 0
	}
	return l.sum / float64(l.n)
}

// DiscoveryPoint is one (size, protocol, attack) cell.
type DiscoveryPoint struct {
	Nodes    int
	Protocol string
	Attack   string
	Stats    metrics.RunStats

	CostPerTask float64 // message units per offered task
	Admission   float64
	MeanLatency float64 // seconds from arrival to placement
}

// RunDiscovery executes the study on the given event kernel (shards ≤ 1
// is the classic scheduler; the points are identical at any value).
// Cells run sequentially — the 100k rows are memory-heavy enough that
// fanning out would thrash.
func RunDiscovery(st DiscoveryStudy, shards int) []DiscoveryPoint {
	var out []DiscoveryPoint
	for si, side := range st.Sides {
		g := topology.Mesh(side, side)
		n := g.N()
		warmup, duration := st.Warmups[si], st.Durations[si]
		for _, c := range discoveryContenders(side) {
			for _, atk := range discoveryAttacks(n, warmup, duration, st.Seed) {
				stats, lat := runDiscoveryCell(st, g, warmup, duration, st.HotNodes[si], c, atk.Scen, shards)
				out = append(out, discoveryPoint(n, c.Label, atk.Label, stats, lat))
			}
		}
	}
	return out
}

// discoveryPoint reduces one cell's run to its table row.
func discoveryPoint(n int, proto, atk string, stats metrics.RunStats, lat *latencyTracker) DiscoveryPoint {
	p := DiscoveryPoint{
		Nodes:       n,
		Protocol:    proto,
		Attack:      atk,
		Stats:       stats,
		Admission:   stats.AdmissionProbability(),
		MeanLatency: lat.Mean(),
	}
	if stats.Offered > 0 {
		p.CostPerTask = stats.MessageUnits / float64(stats.Offered)
	}
	return p
}

func runDiscoveryCell(st DiscoveryStudy, g *topology.Graph, warmup, duration sim.Time,
	hot int, c discoveryContender, scen attack.Scenario, shards int) (metrics.RunStats, *latencyTracker) {
	n := g.N()
	lat := newLatencyTracker(warmup, duration)
	ecfg := PaperCell(g, warmup, duration, st.Seed)
	ecfg.Shards = shards
	ecfg.Groups = c.Groups
	ecfg.RerouteDeadArrivals = true
	ecfg.Trace = lat
	e := newCell(ecfg, c.Build)
	if scen != nil {
		scen.Apply(e)
	}
	lambda := st.HotTaskRate*float64(hot) + st.Background
	src := workload.NewPoisson(lambda, st.MeanSize, n, rng.New(st.Seed))
	hotIDs := make([]topology.NodeID, hot)
	for i := range hotIDs {
		hotIDs[i] = topology.NodeID(i*(n/hot) + n/(2*hot))
	}
	hotFrac := st.HotTaskRate * float64(hot) / lambda
	pick := rng.New(st.Seed).Derive("disc-hot")
	src.Select = func(uint64) topology.NodeID {
		if pick.Bernoulli(hotFrac) {
			return hotIDs[pick.Intn(len(hotIDs))]
		}
		return topology.NodeID(pick.Intn(n))
	}
	return e.Run(src), lat
}

// DiscoveryTable renders the sweep grouped by mesh size, with each
// cell's per-task message cost expressed both absolutely and as a ratio
// of flood-REALTOR's cost under the same size and attack — the ratio
// column is the study's headline (how sub-linear the overlays really
// are once every hop is billed at real unicast cost).
func DiscoveryTable(points []DiscoveryPoint) string {
	ref := map[string]float64{}
	for _, p := range points {
		if p.Protocol == "REALTOR" {
			ref[fmt.Sprintf("%d/%s", p.Nodes, p.Attack)] = p.CostPerTask
		}
	}
	var b strings.Builder
	lastNodes := -1
	for _, p := range points {
		if p.Nodes != lastNodes {
			if lastNodes != -1 {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "== %d nodes ==\n", p.Nodes)
			fmt.Fprintf(&b, "%-10s%-10s%-14s%-12s%-11s%-11s\n",
				"protocol", "attack", "cost/task", "vsREALTOR", "admission", "latency")
			lastNodes = p.Nodes
		}
		ratio := "-"
		if r := ref[fmt.Sprintf("%d/%s", p.Nodes, p.Attack)]; r > 0 && p.CostPerTask > 0 {
			ratio = fmt.Sprintf("%.4f", p.CostPerTask/r)
		}
		fmt.Fprintf(&b, "%-10s%-10s%-14.1f%-12s%-11.4f%-11.4f\n",
			p.Protocol, p.Attack, p.CostPerTask, ratio, p.Admission, p.MeanLatency)
	}
	return b.String()
}
