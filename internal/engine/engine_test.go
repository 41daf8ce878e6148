package engine

import (
	"testing"

	"realtor/internal/core"
	"realtor/internal/metrics"
	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/resource"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

func testEngineConfig() Config {
	return Config{
		Graph:         topology.Mesh(5, 5),
		QueueCapacity: 100,
		HopDelay:      0.01,
		Threshold:     0.9,
		Warmup:        50,
		Duration:      500,
		Seed:          1,
	}
}

func builders() map[string]Builder {
	cfg := protocol.DefaultConfig()
	return map[string]Builder{
		"realtor":  func() protocol.Discovery { return core.New(cfg) },
		"purepush": func() protocol.Discovery { return core.NewPurePush(cfg) },
		"adpush":   func() protocol.Discovery { return core.NewAdaptivePush(cfg) },
		"purepull": func() protocol.Discovery { return core.NewPurePull(cfg) },
		"adpull":   func() protocol.Discovery { return core.NewAdaptivePull(cfg) },
	}
}

func run(t *testing.T, b Builder, lambda float64, seed int64) metrics.RunStats {
	t.Helper()
	cfg := testEngineConfig()
	cfg.Seed = seed
	e := New(cfg, b)
	src := workload.NewPoisson(lambda, 5, cfg.Graph.N(), rng.New(seed))
	return e.Run(src)
}

func TestAllProtocolsProduceValidStats(t *testing.T) {
	for name, b := range builders() {
		st := run(t, b, 6, 42)
		if err := st.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Offered == 0 {
			t.Fatalf("%s: no offered tasks", name)
		}
		if st.AdmissionProbability() <= 0.3 {
			t.Fatalf("%s: implausible admission %v", name, st.AdmissionProbability())
		}
	}
}

func TestLowLoadAdmitsNearlyEverything(t *testing.T) {
	for name, b := range builders() {
		st := run(t, b, 1, 7)
		if p := st.AdmissionProbability(); p < 0.999 {
			t.Fatalf("%s: admission %v at λ=1, want ≈1", name, p)
		}
		if st.Migrated != 0 && name != "purepush" {
			// At λ=1 per-node load is 0.2; queues essentially never fill.
			t.Logf("%s: unexpected migrations at trivial load: %d", name, st.Migrated)
		}
	}
}

func TestHighLoadDegradesAdmission(t *testing.T) {
	for name, b := range builders() {
		lo := run(t, b, 4, 7).AdmissionProbability()
		hi := run(t, b, 10, 7).AdmissionProbability()
		if hi >= lo {
			t.Fatalf("%s: admission did not degrade with load (%v -> %v)", name, lo, hi)
		}
		if hi > 0.95 {
			t.Fatalf("%s: admission %v at λ=10 suspiciously high", name, hi)
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	b := builders()["realtor"]
	a := run(t, b, 6, 99)
	c := run(t, b, 6, 99)
	if a != c {
		t.Fatalf("same seed produced different stats:\n%+v\n%+v", a, c)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	b := builders()["realtor"]
	a := run(t, b, 6, 1)
	c := run(t, b, 6, 2)
	if a == c {
		t.Fatal("different seeds produced identical stats")
	}
}

// The paper's central overhead ordering (Fig. 6): Push-1 ≫ REALTOR >
// Pull-100, and Push-1 is the most expensive of all five at moderate load.
func TestMessageOverheadOrdering(t *testing.T) {
	bs := builders()
	push1 := run(t, bs["purepush"], 6, 11)
	realtor := run(t, bs["realtor"], 6, 11)
	adpull := run(t, bs["adpull"], 6, 11)
	if push1.MessageUnits <= realtor.MessageUnits {
		t.Fatalf("Push-1 units %v not above REALTOR %v", push1.MessageUnits, realtor.MessageUnits)
	}
	if realtor.MessageUnits < adpull.MessageUnits {
		t.Fatalf("REALTOR units %v below Pull-100 %v (push half should add cost)",
			realtor.MessageUnits, adpull.MessageUnits)
	}
}

// Message-kind accounting: pull protocols send no adverts, push protocols
// send no HELPs, REALTOR sends both HELPs and pledges.
func TestMessageKindAccounting(t *testing.T) {
	bs := builders()
	push1 := run(t, bs["purepush"], 6, 13)
	if push1.HelpMsgs != 0 || push1.AdvertMsgs == 0 {
		t.Fatalf("Push-1 kinds: %+v", push1)
	}
	pull := run(t, bs["purepull"], 6, 13)
	if pull.AdvertMsgs != 0 || pull.HelpMsgs == 0 || pull.PledgeMsgs == 0 {
		t.Fatalf("Pull-.9 kinds: %+v", pull)
	}
	re := run(t, bs["realtor"], 6, 13)
	if re.AdvertMsgs != 0 || re.HelpMsgs == 0 || re.PledgeMsgs == 0 {
		t.Fatalf("REALTOR kinds: %+v", re)
	}
}

func TestMigrationsHappenUnderLoad(t *testing.T) {
	st := run(t, builders()["realtor"], 8, 21)
	if st.Migrated == 0 {
		t.Fatal("no migrations at λ=8")
	}
	if st.MigrationRate() <= 0.01 {
		t.Fatalf("migration rate %v too low at λ=8", st.MigrationRate())
	}
}

func TestWarmupExcluded(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Warmup = 499 // measure only the last second
	e := New(cfg, builders()["realtor"])
	src := workload.NewPoisson(6, 5, cfg.Graph.N(), rng.New(3))
	st := e.Run(src)
	// λ=6 → ≈6 offered tasks in 1 second of window.
	if st.Offered > 30 {
		t.Fatalf("offered %d in 1-second window, warmup not honored", st.Offered)
	}
}

func TestKillSuppressesNode(t *testing.T) {
	cfg := testEngineConfig()
	e := New(cfg, builders()["realtor"])
	e.Kill(3)
	e.Kill(3) // double kill is a no-op
	if e.AliveCount() != 24 {
		t.Fatalf("alive count %d, want 24", e.AliveCount())
	}
	src := workload.NewPoisson(6, 5, cfg.Graph.N(), rng.New(5))
	st := e.Run(src)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.statsPer[3].Admitted != 0 {
		t.Fatal("dead node accepted tasks")
	}
	// Tasks kept arriving at node 3's ID and were rejected, so admission
	// is visibly below the all-alive run.
	if p := st.AdmissionProbability(); p > 0.97 {
		t.Fatalf("admission %v with a dead node receiving arrivals", p)
	}
}

func TestRerouteDeadArrivals(t *testing.T) {
	cfg := testEngineConfig()
	cfg.RerouteDeadArrivals = true
	e := New(cfg, builders()["realtor"])
	e.Kill(3)
	src := workload.NewPoisson(3, 5, cfg.Graph.N(), rng.New(5))
	st := e.Run(src)
	if st.AdmissionProbability() < 0.99 {
		t.Fatalf("rerouted run admission %v, want ≈1 at λ=3", st.AdmissionProbability())
	}
	if e.statsPer[3].Admitted != 0 {
		t.Fatal("dead node accepted tasks despite reroute")
	}
}

func TestReviveRestoresService(t *testing.T) {
	cfg := testEngineConfig()
	e := New(cfg, builders()["realtor"])
	e.Kill(3)
	e.Revive(3)
	e.Revive(3) // double revive is a no-op
	if e.AliveCount() != 25 {
		t.Fatal("revive did not restore alive count")
	}
	src := workload.NewPoisson(6, 5, cfg.Graph.N(), rng.New(5))
	st := e.Run(src)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.statsPer[3].Admitted == 0 {
		t.Fatal("revived node never accepted a task")
	}
}

func TestMidRunKillAndRecovery(t *testing.T) {
	// Kill five nodes mid-run and revive them later; the run must stay
	// consistent and the protocol must keep admitting tasks afterwards —
	// the statelessness claim of Section 7.
	cfg := testEngineConfig()
	cfg.Duration = 600
	e := New(cfg, builders()["realtor"])
	for i := 0; i < 5; i++ {
		id := topology.NodeID(i * 5)
		e.Scheduler().At(200, func(sim.Time) { e.Kill(id) })
		e.Scheduler().At(400, func(sim.Time) { e.Revive(id) })
	}
	src := workload.NewPoisson(6, 5, cfg.Graph.N(), rng.New(9))
	st := e.Run(src)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.AliveCount() != 25 {
		t.Fatal("not all nodes revived")
	}
	if st.AdmissionProbability() < 0.5 {
		t.Fatalf("admission %v collapsed under churn", st.AdmissionProbability())
	}
}

func TestConfigValidation(t *testing.T) {
	good := testEngineConfig()
	muts := []func(*Config){
		func(c *Config) { c.Graph = nil },
		func(c *Config) { c.QueueCapacity = 0 },
		func(c *Config) { c.HopDelay = -1 },
		func(c *Config) { c.Threshold = 0 },
		func(c *Config) { c.Duration = c.Warmup },
		func(c *Config) { c.Warmup = -1 },
	}
	for i, mut := range muts {
		c := good
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestCrossingCallbacksReachProtocol(t *testing.T) {
	// Drive the engine manually: fill node 0 past the threshold and make
	// sure its protocol fires a HELP (REALTOR) exactly when expected.
	cfg := testEngineConfig()
	e := New(cfg, builders()["adpush"])
	// A single 95-second task pushes node 0 above 0.9 immediately.
	tr := workload.NewTrace([]workload.Task{{ID: 0, Node: 0, Size: 95, Arrive: 60}})
	st := e.Run(tr)
	if st.AdvertMsgs != 2 {
		// One rising advert at t=60, one falling at t=60+(95-90)=65.
		t.Fatalf("adverts = %d, want 2 (rise+fall)", st.AdvertMsgs)
	}
}

func TestOversizedTaskRejectedEverywhere(t *testing.T) {
	cfg := testEngineConfig()
	e := New(cfg, builders()["realtor"])
	tr := workload.NewTrace([]workload.Task{{ID: 0, Node: 0, Size: 150, Arrive: 60}})
	st := e.Run(tr)
	if st.Admitted != 0 || st.Rejected != 1 {
		t.Fatalf("oversized task stats %+v", st)
	}
}

func TestFloodRadiusScoping(t *testing.T) {
	// With radius 1, a HELP from a mesh corner reaches only its 2
	// neighbors, and is charged only the links inside that neighborhood.
	cfg := testEngineConfig()
	cfg.FloodRadius = 1
	e := New(cfg, builders()["adpush"])
	// A 95-second task at corner node 0 triggers a rising advert.
	tr := workload.NewTrace([]workload.Task{{ID: 0, Node: 0, Size: 95, Arrive: 60}})
	st := e.Run(tr)
	if st.AdvertMsgs != 2 {
		t.Fatalf("adverts %d, want 2", st.AdvertMsgs)
	}
	// Corner's 1-hop subgraph {0,1,5} has exactly 2 links; 2 adverts -> 4.
	if st.MessageUnits != 4 {
		t.Fatalf("scoped flood units %v, want 4", st.MessageUnits)
	}
}

func TestFloodRadiusLimitsDelivery(t *testing.T) {
	cfg := testEngineConfig()
	cfg.FloodRadius = 1
	e := New(cfg, builders()["realtor"])
	// Node 12 (center) HELPs; only its 4 neighbors may pledge. Check
	// shortly after the HELP, before the soft-state entries expire.
	e.Scheduler().At(70, func(sim.Time) {
		cands := e.Discovery(12).Candidates(1)
		if len(cands) != 4 {
			t.Errorf("candidates %d, want 4 (1-hop neighbors only)", len(cands))
		}
		want := map[topology.NodeID]bool{7: true, 11: true, 13: true, 17: true}
		for _, c := range cands {
			if !want[c.ID] {
				t.Errorf("candidate %d outside 1-hop scope", c.ID)
			}
		}
	})
	tr := workload.NewTrace([]workload.Task{{ID: 0, Node: 12, Size: 95, Arrive: 60}})
	e.Run(tr)
}

func TestAttributeConstrainedPlacement(t *testing.T) {
	cfg := testEngineConfig()
	attrs := make([]resource.Attrs, 25)
	for i := range attrs {
		attrs[i] = resource.Attrs{Security: 1}
	}
	attrs[7] = resource.Attrs{Security: 2} // the only compliant host
	cfg.Attrs = attrs
	e := New(cfg, builders()["realtor"])
	// Constrained tasks arrive at non-compliant idle nodes. The very
	// first one triggers discovery but finds an empty list (pledges are
	// still in flight — discovery is pro-active, so the first request at
	// a cold node loses); subsequent ones must be served on node 7.
	tr := workload.NewTrace([]workload.Task{
		{ID: 0, Node: 0, Size: 5, Arrive: 60, Require: resource.Attrs{Security: 2}},
		{ID: 1, Node: 0, Size: 5, Arrive: 70, Require: resource.Attrs{Security: 2}},
		{ID: 2, Node: 0, Size: 5, Arrive: 80, Require: resource.Attrs{Security: 2}},
	})
	st := e.Run(tr)
	if st.Admitted < 2 || st.Migrated < 2 {
		t.Fatalf("stats %+v, want ≥2 admitted via migration", st)
	}
	if e.statsPer[7].Admitted < 2 {
		t.Fatalf("compliant host accepted %d, want ≥2", e.statsPer[7].Admitted)
	}
	// Nothing may run on a non-compliant node.
	for i := 0; i < 25; i++ {
		if i != 7 && e.statsPer[i].Admitted != 0 {
			t.Fatalf("non-compliant node %d ran a constrained task", i)
		}
	}
}

func TestUnconstrainedEngineRejectsConstrainedTasks(t *testing.T) {
	cfg := testEngineConfig()
	e := New(cfg, builders()["realtor"])
	tr := workload.NewTrace([]workload.Task{
		{ID: 0, Node: 0, Size: 5, Arrive: 60, Require: resource.Attrs{Security: 1}},
	})
	st := e.Run(tr)
	if st.Admitted != 0 {
		t.Fatal("engine without attributes admitted a constrained task")
	}
}

func TestSetAttrsMidRunVoidsPlacement(t *testing.T) {
	cfg := testEngineConfig()
	attrs := make([]resource.Attrs, 25)
	for i := range attrs {
		attrs[i] = resource.Attrs{Security: 2}
	}
	cfg.Attrs = attrs
	e := New(cfg, builders()["realtor"])
	// Downgrade every node except 0 at t=50; constrained task arrives at
	// (still-compliant) node 0 at t=60 and must run locally.
	e.Scheduler().At(50, func(sim.Time) {
		for i := 1; i < 25; i++ {
			e.SetAttrs(topology.NodeID(i), resource.Attrs{Security: 0})
		}
	})
	tr := workload.NewTrace([]workload.Task{
		{ID: 0, Node: 0, Size: 5, Arrive: 60, Require: resource.Attrs{Security: 2}},
		{ID: 1, Node: 5, Size: 5, Arrive: 70, Require: resource.Attrs{Security: 2}},
	})
	st := e.Run(tr)
	if e.statsPer[0].Admitted < 1 {
		t.Fatal("compliant node did not accept its local constrained task")
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Attrs(5).Security != 0 || e.Attrs(0).Security != 2 {
		t.Fatal("SetAttrs not applied")
	}
}

func TestOnOutcomeCoversAllFates(t *testing.T) {
	cfg := testEngineConfig()
	var outcomes int
	var admitted int
	cfg.OnOutcome = func(_ workload.Task, _ sim.Time, ok bool) {
		outcomes++
		if ok {
			admitted++
		}
	}
	e := New(cfg, builders()["realtor"])
	src := workload.NewPoisson(8, 5, 25, rng.New(1))
	st := e.Run(src)
	// OnOutcome sees every generated task (warmup included), so it must
	// be at least the measured-offered count, and the admitted fraction
	// must be consistent with the measured stats direction.
	if uint64(outcomes) < st.Offered {
		t.Fatalf("outcomes %d < offered %d", outcomes, st.Offered)
	}
	if admitted == 0 || admitted == outcomes {
		t.Fatalf("degenerate outcome split %d/%d at λ=8", admitted, outcomes)
	}
}

func TestHeterogeneousCapacities(t *testing.T) {
	cfg := testEngineConfig()
	caps := make([]float64, 25)
	for i := range caps {
		caps[i] = 20 // small queues everywhere...
	}
	caps[12] = 200 // ...except one big host
	cfg.Capacities = caps
	cfg.Warmup = 0 // count every placement: the big buffer fills early
	e := New(cfg, builders()["realtor"])
	if e.Node(12).Capacity() != 200 || e.Node(0).Capacity() != 20 {
		t.Fatal("capacity overrides not applied")
	}
	src := workload.NewPoisson(6, 5, 25, rng.New(4))
	st := e.Run(src)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every node drains at one second of work per second, so a larger
	// queue buys buffering, not throughput: under sustained overload the
	// big host saturates like everyone else. The observable effect is
	// that it absorbs the most work of any node (its buffer soaks up
	// migrations until it, too, crosses the threshold).
	big := e.statsPer[12].Admitted
	for i := 0; i < 25; i++ {
		if i == 12 {
			continue
		}
		if acc := e.statsPer[i].Admitted; acc >= big {
			t.Fatalf("node %d accepted %d ≥ big host's %d", i, acc, big)
		}
	}
	if u := e.Node(12).Usage(e.Scheduler().Now()); u < 0.5 {
		t.Fatalf("big host usage %v — it should have been filled", u)
	}
}

func TestCapacitiesValidation(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Capacities = []float64{1, 2}
	if cfg.Validate() == nil {
		t.Fatal("wrong-length capacities accepted")
	}
	cfg.Capacities = make([]float64, 25)
	cfg.Capacities[3] = -1
	if cfg.Validate() == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestTraceCapturesProtocolRun(t *testing.T) {
	cfg := testEngineConfig()
	rec := &trace.Buffer{}
	cfg.Trace = rec
	e := New(cfg, builders()["realtor"])
	src := workload.NewPoisson(8, 5, 25, rng.New(2))
	st := e.Run(src)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Arrivals traced for every generated task (trace covers warmup too).
	if got := uint64(len(rec.OfKind(trace.Arrival))); got < st.Offered {
		t.Fatalf("traced arrivals %d < offered %d", got, st.Offered)
	}
	// Every successful migration appears as try -> ok, time-ordered.
	oks := rec.OfKind(trace.MigrateOK)
	if uint64(len(oks)) < st.Migrated {
		t.Fatalf("traced ok-migrations %d < measured %d", len(oks), st.Migrated)
	}
	tries := rec.OfKind(trace.MigrateTry)
	if len(tries) < len(oks) {
		t.Fatalf("tries %d < oks %d", len(tries), len(oks))
	}
	// Crossings alternate per node: an up is never followed by another up.
	lastUp := map[topology.NodeID]bool{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.CrossUp:
			if lastUp[ev.Node] {
				t.Fatalf("node %d crossed up twice without coming down", ev.Node)
			}
			lastUp[ev.Node] = true
		case trace.CrossDown:
			if !lastUp[ev.Node] {
				t.Fatalf("node %d crossed down without being up", ev.Node)
			}
			lastUp[ev.Node] = false
		}
	}
	// Events are time-ordered.
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("trace out of order at %d", i)
		}
	}
	// HELP floods traced as messages.
	helps := 0
	for _, ev := range rec.OfKind(trace.MsgSend) {
		if ev.Info == "flood-HELP" {
			helps++
		}
	}
	if uint64(helps) < st.HelpMsgs {
		t.Fatalf("traced HELP floods %d < measured %d", helps, st.HelpMsgs)
	}
}

func TestMaxTriesWalksTheList(t *testing.T) {
	// Force a migration whose best candidate lies: node 0 fills up, its
	// list contains node 1 (stale: full) and node 2 (room). With one try
	// the task dies at node 1; with two tries it lands on node 2.
	run := func(maxTries int) metrics.RunStats {
		cfg := testEngineConfig()
		cfg.MaxTries = maxTries
		e := New(cfg, builders()["realtor"])
		// Seed node 0's list via direct delivery: candidates 1 (claims 95
		// free but will be filled) and 2 (truly free, lower claim).
		e.Scheduler().At(59, func(sim.Time) {
			e.Discovery(0).Deliver(protocol.Message{Kind: protocol.Pledge, From: 1, Headroom: 95})
			e.Discovery(0).Deliver(protocol.Message{Kind: protocol.Pledge, From: 2, Headroom: 50})
			// Fill nodes 0 and 1 behind the pledges' back.
			e.Node(0).Accept(59, 99)
			e.Node(1).Accept(59, 99)
		})
		tr := workload.NewTrace([]workload.Task{{ID: 0, Node: 0, Size: 20, Arrive: 60}})
		return e.Run(tr)
	}
	once := run(1)
	if once.Admitted != 0 || once.MigrateFail != 1 {
		t.Fatalf("one-try stats %+v, want rejection after one failed try", once)
	}
	twice := run(2)
	if twice.Admitted != 1 || twice.Migrated != 1 {
		t.Fatalf("two-try stats %+v, want success on the second candidate", twice)
	}
	if twice.MigrateFail != 1 {
		t.Fatalf("two-try failed tries %d, want 1", twice.MigrateFail)
	}
}

func TestMaxTriesImprovesAdmissionUnderLoad(t *testing.T) {
	cfg := testEngineConfig()
	run := func(tries int) float64 {
		c := cfg
		c.MaxTries = tries
		e := New(c, builders()["realtor"])
		return e.Run(workload.NewPoisson(8, 5, 25, rng.New(3))).AdmissionProbability()
	}
	one, three := run(1), run(3)
	if three < one {
		t.Fatalf("walking the list hurt admission: 1-try=%v 3-try=%v", one, three)
	}
}

// With no trace recorder configured — every figure sweep — sending
// allocates nothing at all once the wave pool is warm: floods and
// unicasts alike reuse pooled waves (member slices included) and the
// shard's send scratch, and build no trace text they would then throw
// away.
func TestUntracedFloodAllocatesNothing(t *testing.T) {
	cfg := testEngineConfig()
	e := New(cfg, func() protocol.Discovery { return protocoltest.Inert{} })
	env, now := e.envs[12], sim.Time(0)
	send := func() {
		env.Flood(protocol.Message{Kind: protocol.Help, From: 12})
		env.Unicast(0, protocol.Message{Kind: protocol.Pledge, From: 12})
		env.Flood(protocol.Message{Kind: protocol.Help, From: 12})
		e.envs[0].Unicast(24, protocol.Message{Kind: protocol.Pledge})
		now++
		e.Scheduler().RunUntil(now) // every wave lands and returns to the pool
	}
	send()
	if allocs := testing.AllocsPerRun(50, send); allocs != 0 {
		t.Fatalf("an untraced round of two floods and two unicasts allocates %.1f times, want 0", allocs)
	}
}
