package check

import (
	"fmt"
	"sync"
	"testing"

	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// fuzzishConfig is a paper-shaped parameter set scaled down so a short
// run actually exercises crossings, expiry, and migration.
func fuzzishConfig() protocol.Config {
	cfg := protocol.DefaultConfig()
	cfg.Threshold = 0.7
	cfg.EntryTTL = 8
	cfg.MembershipTTL = 8
	cfg.MaxMemberships = 6
	return cfg
}

// attach builds an engine with the oracle (and optional extra hooks)
// wired in.
func attach(cfg engine.Config, build engine.Builder) (*engine.Engine, *Oracle) {
	h := &Hooks{}
	cfg.Trace = h
	cfg.Observer = h
	e := engine.New(cfg, build)
	o := NewOracle(e)
	h.Bind(o)
	return e, o
}

func TestOracleCleanOnHonestRun(t *testing.T) {
	pcfg := fuzzishConfig()
	g := topology.Mesh(5, 5)
	cfg := engine.Config{
		Graph:         g,
		QueueCapacity: 10,
		HopDelay:      0.01,
		Threshold:     pcfg.Threshold,
		Duration:      30,
		LossProb:      0.1,
		Seed:          7,
	}
	e, o := attach(cfg, func() protocol.Discovery { return core.New(pcfg) })
	src := workload.NewPoisson(30, 1, g.N(), rng.New(7))
	stats := e.Run(src)
	o.Finish(e.Scheduler().Now())

	if stats.Offered == 0 || stats.Migrated == 0 {
		t.Fatalf("run too quiet to exercise the oracle: %+v", stats)
	}
	for _, v := range o.Violations() {
		t.Errorf("unexpected violation: %s", v)
	}
}

func TestOracleCleanUnderChurn(t *testing.T) {
	pcfg := fuzzishConfig()
	g := topology.Mesh(4, 4)
	cfg := engine.Config{
		Graph:         g,
		QueueCapacity: 8,
		HopDelay:      0.01,
		Threshold:     pcfg.Threshold,
		Duration:      25,
		Seed:          11,
	}
	e, o := attach(cfg, func() protocol.Discovery { return core.New(pcfg) })

	// Mid-run node churn and a link cut: the oracle must track
	// incarnations and the shadow topology without false positives.
	sched := e.Scheduler()
	sched.At(8, func(sim.Time) { e.Kill(5) })
	sched.At(10, func(sim.Time) { e.CutLink(0, 1) })
	sched.At(15, func(sim.Time) { e.Revive(5) })
	sched.At(18, func(sim.Time) { e.RestoreLink(0, 1) })
	stats := e.Run(workload.NewPoisson(25, 1, g.N(), rng.New(11)))
	o.Finish(e.Scheduler().Now())
	if stats.Offered == 0 {
		t.Fatal("no offered tasks")
	}
	for _, v := range o.Violations() {
		t.Errorf("unexpected violation: %s", v)
	}
}

// TestI6PartitionSafetyThroughReachable feeds the oracle hand-forged
// observer calls over a shadow overlay it maintains from link events
// alone. I6 is answered by the shadow's component labels (Reachable),
// never by a distance row: a send across a recorded cut and a partition
// drop between still-connected nodes must each raise it, and the honest
// counterparts of both must stay clean.
func TestI6PartitionSafetyThroughReachable(t *testing.T) {
	help := protocol.Message{Kind: protocol.Help, From: 0}
	cut := func(a, b topology.NodeID) trace.Event {
		return trace.Event{At: 1, Kind: trace.LinkCut, Node: a, Peer: b}
	}
	restore := func(a, b topology.NodeID) trace.Event {
		return trace.Event{At: 2, Kind: trace.LinkRestore, Node: a, Peer: b}
	}
	cases := []struct {
		name   string
		events []trace.Event // link history on the 2×2 mesh 0-1 / 2-3
		act    func(o *Oracle)
		want   int // I6 violations
	}{
		{"forged send across a recorded cut",
			[]trace.Event{cut(0, 1), cut(0, 2)},
			func(o *Oracle) { o.OnSend(3, 0, 3, help) }, 1},
		{"send around a cut that leaves a detour",
			[]trace.Event{cut(0, 1)},
			func(o *Oracle) { o.OnSend(3, 0, 1, help) }, 0},
		{"send after the cut healed",
			[]trace.Event{cut(0, 1), cut(0, 2), restore(0, 2)},
			func(o *Oracle) { o.OnSend(3, 0, 3, help) }, 0},
		{"phantom partition drop on the pristine mesh",
			nil,
			func(o *Oracle) { o.OnDrop(3, 0, 3, help, trace.DropPartition) }, 1},
		{"phantom partition drop around a detour",
			[]trace.Event{cut(0, 1)},
			func(o *Oracle) { o.OnDrop(3, 0, 1, help, trace.DropPartition) }, 1},
		{"genuine partition drop",
			[]trace.Event{cut(0, 1), cut(0, 2)},
			func(o *Oracle) { o.OnDrop(3, 0, 3, help, trace.DropPartition) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pcfg := fuzzishConfig()
			_, o := attach(engine.Config{
				Graph:         topology.Mesh(2, 2),
				QueueCapacity: 10,
				HopDelay:      0.01,
				Threshold:     pcfg.Threshold,
				Duration:      10,
				Seed:          1,
			}, func() protocol.Discovery { return core.New(pcfg) })
			for _, ev := range tc.events {
				o.Record(ev)
			}
			tc.act(o)
			got := 0
			for _, v := range o.Violations() {
				if v.Invariant != "I6-partition-safety" {
					t.Errorf("unexpected violation: %s", v)
				}
				got++
			}
			if got != tc.want {
				t.Fatalf("%d I6 violations, want %d", got, tc.want)
			}
			if st := o.shadow.DistStats(); st != (topology.DistStats{}) {
				t.Fatalf("shadow overlay materialised distance rows: %+v", st)
			}
		})
	}
}

// staleScenario drives a hand-built two-node timeline in which the only
// way to find a migration candidate at t=9.6 is to serve a pledge aged
// past EntryTTL. With the honest protocol the task is rejected; with
// the StaleRealtor mutant the expired entry is served and the oracle's
// I3 check must fire.
func staleScenario(t *testing.T, build engine.Builder) (*Oracle, uint64) {
	t.Helper()
	g := topology.Mesh(1, 2)
	cfg := engine.Config{
		Graph:         g,
		QueueCapacity: 10,
		HopDelay:      0.01,
		Threshold:     0.5,
		Duration:      12,
		Seed:          1,
	}
	e, o := attach(cfg, build)
	src := workload.NewTrace([]workload.Task{
		{ID: 0, Node: 0, Size: 6, Arrive: 1},   // seeds node 0's pledge list via HELP→PLEDGE
		{ID: 1, Node: 1, Size: 6, Arrive: 9.4}, // saturates node 1 so it won't re-pledge
		{ID: 2, Node: 0, Size: 9, Arrive: 9.5}, // reloads node 0 (flood's reply never comes)
		{ID: 3, Node: 0, Size: 5, Arrive: 9.6}, // overflows node 0 → migration try
	})
	stats := e.Run(src)
	o.Finish(e.Scheduler().Now())
	return o, stats.Rejected
}

func TestStaleMutantScenarioIsCleanWithHonestProtocol(t *testing.T) {
	pcfg := staleConfig()
	o, rejected := staleScenario(t, func() protocol.Discovery { return core.New(pcfg) })
	for _, v := range o.Violations() {
		t.Errorf("honest run violated: %s", v)
	}
	if rejected == 0 {
		t.Fatal("scenario did not force a rejection; it no longer exercises the stale path")
	}
}

func TestOracleCatchesStaleCandidateMutant(t *testing.T) {
	pcfg := staleConfig()
	o, _ := staleScenario(t, func() protocol.Discovery { return NewStaleRealtor(pcfg) })
	// The whole list, not just "caught": one I3 finding, at the try.
	wantViolations(t, o, []Violation{{At: 9.6, Invariant: "I3-soft-state-expiry", Node: 0,
		Detail: "migration try to node 1 without a pledge-list entry (stale or fabricated candidate)"}})
}

func staleConfig() protocol.Config {
	cfg := protocol.DefaultConfig()
	cfg.Threshold = 0.5
	cfg.EntryTTL = 5
	cfg.MembershipTTL = 5
	return cfg
}

// TestReferenceMatchesFastImplementation is the differential layer in
// miniature: one busy scenario through core.Realtor and through the
// slow Reference must yield identical decision logs and statistics.
// The fuzz harness extends this to hundreds of generated scenarios.
func TestReferenceMatchesFastImplementation(t *testing.T) {
	run := func(build engine.Builder) (*DecisionLog, string) {
		pcfg := fuzzishConfig()
		g := topology.Mesh(4, 4)
		cfg := engine.Config{
			Graph:         g,
			QueueCapacity: 8,
			HopDelay:      0.01,
			Threshold:     pcfg.Threshold,
			Duration:      20,
			LossProb:      0.15,
			MaxTries:      2,
			Seed:          3,
		}
		log := &DecisionLog{}
		cfg.Trace = log
		cfg.Observer = log
		e := engine.New(cfg, build)
		stats := e.Run(workload.NewPoisson(20, 1, g.N(), rng.New(3)))
		return log, fmt.Sprintf("%+v", stats)
	}
	pcfg := fuzzishConfig()
	fast, fastStats := run(func() protocol.Discovery { return core.New(pcfg) })
	ref, refStats := run(func() protocol.Discovery { return NewReference(pcfg) })
	if i, why := CompareLogs(fast, ref); i >= 0 {
		t.Fatalf("decision logs diverge: %s", why)
	}
	if fastStats != refStats {
		t.Fatalf("stats diverge:\n fast %s\n ref  %s", fastStats, refStats)
	}
	if fast.Len() == 0 {
		t.Fatal("empty decision log: scenario exercised nothing")
	}
}

// eventCount is a deliberately unsynchronized Tee consumer.
type eventCount int

func (c *eventCount) Record(trace.Event) { *c++ }

// TestHooksSerializeConcurrentEmitters: shard workers (InlineHooks)
// emit from several goroutines at once. The oracle audits on the
// emitting goroutine and locks only what the emitters share (here the
// I5 task multiset, fed arrivals and outcomes of every node), while a
// Tee'd consumer is single-threaded — the Hooks mutex serializes it.
// Run under -race (`make race`).
func TestHooksSerializeConcurrentEmitters(t *testing.T) {
	const emitters, tasks = 2, 500
	o := NewWorldOracle(&scriptWorld{n: 4})
	var teed eventCount
	h := &Hooks{}
	h.Tee(&teed, nil)
	h.Bind(o)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(node topology.NodeID) {
			defer wg.Done()
			for i := 1; i <= tasks; i++ {
				size := float64(i) + float64(node)/10
				h.Record(trace.Event{At: sim.Time(i), Kind: trace.Arrival, Node: node, Size: size})
				h.OnInject(sim.Time(i), node, size)
				h.Record(trace.Event{At: sim.Time(i), Kind: trace.AdmitLocal, Node: node, Size: size})
			}
		}(topology.NodeID(g))
	}
	wg.Wait()
	if o.arrivals != emitters*tasks || o.resolved != emitters*tasks || len(o.pending) != 0 {
		t.Errorf("oracle saw %d arrivals, %d resolutions, %d unresolved; want %d, %d, 0",
			o.arrivals, o.resolved, len(o.pending), emitters*tasks, emitters*tasks)
	}
	if len(o.Violations()) != 0 {
		t.Errorf("honest concurrent stream flagged: %v", o.Violations()[0])
	}
	if teed != 2*emitters*tasks {
		t.Errorf("teed recorder saw %d events, want %d", teed, 2*emitters*tasks)
	}
}

// The one row the oracle reads across nodes: a FOUND answer delivered
// to one node is checked against the answering home's maxPut row, while
// the home's own emitter keeps writing — and growing — that row as PUTs
// arrive. Two goroutines play the two shards; under -race an unguarded
// row is reported.
func TestOverlayAnswerCheckUnderConcurrentPuts(t *testing.T) {
	const home, asker, puts = 1, 2, 2000
	o := NewWorldOracle(&scriptWorld{n: puts + 3})
	put := func(provider topology.NodeID) {
		o.OnDeliver(1, home, protocol.Message{Kind: protocol.DHTPut, From: 0, Origin: provider, Headroom: 1})
	}
	put(3) // the one provider every answer carries
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for p := topology.NodeID(4); p < puts+3; p++ {
			put(p)
		}
	}()
	go func() {
		defer wg.Done()
		answer := protocol.Message{Kind: protocol.DHTFound, From: home, View: []protocol.Candidate{{ID: 3, Headroom: 1}}}
		for i := 0; i < puts; i++ {
			o.OnDeliver(2, asker, answer)
		}
	}()
	wg.Wait()
	if len(o.Violations()) != 0 {
		t.Errorf("honest answers flagged: %v", o.Violations()[0])
	}
}

// TestHooksPanicBeforeBind: no backend emits before its run starts, so
// a callback reaching Hooks before the oracle is bound is a wiring bug,
// reported by name rather than queued.
func TestHooksPanicBeforeBind(t *testing.T) {
	m := protocol.Message{Kind: protocol.Advert, From: 1, Headroom: 5}
	for name, call := range map[string]func(*Hooks){
		"Record":    func(h *Hooks) { h.Record(trace.Event{Kind: trace.Arrival, Size: 2}) },
		"OnSend":    func(h *Hooks) { h.OnSend(0, 1, 0, m) },
		"OnDeliver": func(h *Hooks) { h.OnDeliver(0, 0, m) },
		"OnDrop":    func(h *Hooks) { h.OnDrop(0, 1, 0, m, "loss") },
		"OnInject":  func(h *Hooks) { h.OnInject(0, 0, 2) },
	} {
		t.Run(name, func(t *testing.T) {
			want := "check: Hooks." + name + " before Bind"
			defer func() {
				if got := recover(); got != want {
					t.Fatalf("panic %v, want %q", got, want)
				}
			}()
			call(&Hooks{})
		})
	}
}
