package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// layers is one traced round's per-layer samples, keyed by the metric
// names BENCHMARK.json declares. A name a workload never sets reads 0:
// the workload bypasses that layer.
type layers map[string]float64

func seconds(t time.Time) float64 { return time.Since(t).Seconds() }

// hostCounters snapshots the runtime counters the host.* metrics are
// deltas of.
type hostCounters struct {
	alloc   uint64
	mallocs uint64
	gc      uint32
	pauseNs uint64
}

func readHost() hostCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostCounters{alloc: m.TotalAlloc, mallocs: m.Mallocs, gc: m.NumGC, pauseNs: m.PauseTotalNs}
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// hostLayer fills the host.* metrics from the counters around ops
// untraced operations.
func hostLayer(l layers, a, b hostCounters, ops int) {
	n := float64(ops)
	l["host.allocs_per_op"] = float64(b.mallocs-a.mallocs) / n
	l["host.gc_cycles_per_op"] = float64(b.gc-a.gc) / n
	l["host.gc_pause_ms_per_op"] = float64(b.pauseNs-a.pauseNs) / 1e6 / n
	l["host.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// nullDiscovery is a protocol that never speaks: an engine run with it
// costs what the scheduler, the workload source and local admission
// cost, so (bare run − null run) is the discovery traffic's share.
type nullDiscovery struct{}

func (nullDiscovery) Name() string                                      { return "null" }
func (nullDiscovery) Attach(protocol.Env)                               {}
func (nullDiscovery) OnArrival(float64)                                 {}
func (nullDiscovery) OnUsageCrossing(bool)                              {}
func (nullDiscovery) Deliver(protocol.Message)                          {}
func (nullDiscovery) Candidates(float64) []protocol.Candidate           { return nil }
func (nullDiscovery) OnMigrationOutcome(topology.NodeID, float64, bool) {}
func (nullDiscovery) OnNodeDeath()                                      {}

func buildNull() protocol.Discovery { return nullDiscovery{} }

// floorRunner reschedules itself until the shared budget is spent.
type floorRunner struct {
	s    *sim.Scheduler
	left *uint64
	dt   sim.Time
}

func (r *floorRunner) Fire(sim.Time) {
	if *r.left == 0 {
		return
	}
	*r.left--
	r.s.AfterRunner(r.dt, r)
}

// simFloor replays the same number of events through a bare scheduler
// with no-op runners, keeping about `pending` events queued, and returns
// host nanoseconds per event: the floor the sim layer alone sets under
// an engine run of that size.
func simFloor(events uint64, pending int) float64 {
	if events == 0 {
		return 0
	}
	if pending < 1 {
		pending = 1
	}
	s := sim.NewScheduler(pending)
	left := events
	for i := 0; i < pending && left > 0; i++ {
		left--
		// Co-prime-ish periods keep the heap order shuffling the way
		// mixed timers and deliveries do.
		r := &floorRunner{s: s, left: &left, dt: sim.Time(1 + float64(i%97)/97)}
		s.AtRunner(sim.Time(float64(i)/float64(pending)), r)
	}
	t := time.Now()
	s.Run()
	return seconds(t) * 1e9 / float64(s.Fired())
}

// The topology probe materializes a distance row per source on a
// mutated graph: every node up to the 2500-node cells (where churn-2500
// really does fill every row), a seeded sample above (10 000 full rows
// would be 800 MB).
const (
	distSourceLimit   = 2500
	distSourcesSample = 256
)

// topologyLayer times the topology layer's public entry points on a
// fresh copy of the workload's graph: Dist on the pristine graph, Dist
// after one CutLink has taken it off the pristine-mesh path, and one
// further CutLink and RestoreLink. A mutation's cost is mostly deferred
// — it invalidates distance rows that the next reads rebuild — so each
// is charged the call plus what the same query set then pays above its
// steady-state time.
func topologyLayer(l layers, build func() *topology.Graph, seed int64, pairs int) {
	g := build()
	r := rng.New(seed).Derive("bench-topology")
	n := g.N()
	srcs := r.Perm(n)
	if len(srcs) > distSourceLimit {
		srcs = srcs[:distSourcesSample]
	}
	a := make([]int32, pairs)
	b := make([]int32, pairs)
	for i := range a {
		a[i] = int32(srcs[r.Intn(len(srcs))])
		b[i] = int32(r.Intn(n))
	}
	query := func() float64 {
		sum := 0
		t := time.Now()
		for i := range a {
			sum += g.Dist(topology.NodeID(a[i]), topology.NodeID(b[i]))
		}
		d := seconds(t)
		sink += sum
		return d
	}
	l["topology.dist_ns"] = query() * 1e9 / float64(pairs)

	links := g.LinkList()
	first, second := links[r.Intn(len(links))], links[r.Intn(len(links))]
	g.CutLink(first[0], first[1])
	query() // rebuilds the source rows, untimed
	steady := query()
	l["topology.dist_mutated_ns"] = steady * 1e9 / float64(pairs)

	h0 := readHost()
	t := time.Now()
	g.CutLink(second[0], second[1])
	l["topology.cutlink_ms"] = (seconds(t) + max(0, query()-steady)) * 1e3
	t = time.Now()
	g.RestoreLink(second[0], second[1])
	l["topology.restorelink_ms"] = (seconds(t) + max(0, query()-steady)) * 1e3
	l["topology.mutation_alloc_mb"] = mb(readHost().alloc-h0.alloc) / 2
}

// sink keeps measured loops from being optimised away.
var sink int

// coreLayer drives one core.Realtor instance through a fake node
// environment and times its four handlers.
func coreLayer(l layers, cfg protocol.Config, iters int) {
	const peers = 64
	env := protocoltest.New(0, 100)
	r := core.New(cfg)
	r.Attach(env)
	per := func(fn func(i int)) float64 {
		t := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
			if i%1024 == 0 {
				env.Reset()
			}
		}
		return seconds(t) * 1e9 / float64(iters)
	}
	// Below the threshold every HELP is answered with a PLEDGE.
	env.Backlog = 10
	l["core.deliver_help_ns"] = per(func(i int) {
		r.Deliver(protocol.Message{Kind: protocol.Help, From: topology.NodeID(1 + i%peers), Members: 3, Demand: 5})
	})
	l["core.deliver_pledge_ns"] = per(func(i int) {
		r.Deliver(protocol.Message{Kind: protocol.Pledge, From: topology.NodeID(1 + i%peers), Headroom: float64(5 + i%40), Communities: 2, Grant: 0.5})
	})
	l["core.candidates_ns"] = per(func(int) { sink += len(r.Candidates(5)) })
	// Above the threshold every arrival consults Algorithm H; the clock
	// creeps so most calls are rate-limited and a few flood.
	env.Backlog = 95
	l["core.on_arrival_ns"] = per(func(int) {
		env.Clock += 0.001
		r.OnArrival(5)
	})
}
