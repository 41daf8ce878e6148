package attack

import (
	"testing"

	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/metrics"
	"realtor/internal/protocol"
	"realtor/internal/resource"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

// newEngine builds the 5×5 test cell; a non-nil tl receives every task
// outcome, bucketed by arrival.
func newEngine(reroute bool, tl *metrics.Timeline) *engine.Engine {
	cfg := engine.Config{
		Graph:               topology.Mesh(5, 5),
		QueueCapacity:       100,
		HopDelay:            0.01,
		Threshold:           0.9,
		Warmup:              50,
		Duration:            600,
		Seed:                1,
		RerouteDeadArrivals: reroute,
	}
	if tl != nil {
		cfg.OnOutcome = func(t workload.Task, _ sim.Time, ok bool) { tl.Record(float64(t.Arrive), ok) }
	}
	return engine.New(cfg, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
}

func poisson(lambda float64, seed int64) *workload.Poisson {
	return workload.NewPoisson(lambda, 5, 25, rng.New(seed))
}

func TestKillAndReviveTimeline(t *testing.T) {
	e := newEngine(true, nil)
	Kill{Targets: []topology.NodeID{1, 2, 3}, At: 100, Revive: 300}.Apply(e)
	e.Scheduler().At(150, func(sim.Time) {
		if e.AliveCount() != 22 {
			t.Errorf("alive at t=150: %d, want 22", e.AliveCount())
		}
	})
	e.Scheduler().At(350, func(sim.Time) {
		if e.AliveCount() != 25 {
			t.Errorf("alive at t=350: %d, want 25", e.AliveCount())
		}
	})
	st := e.Run(poisson(4, 2))
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKillWithoutRevive(t *testing.T) {
	e := newEngine(true, nil)
	Kill{Targets: []topology.NodeID{0}, At: 100}.Apply(e)
	st := e.Run(poisson(3, 2))
	if e.AliveCount() != 24 {
		t.Fatalf("alive %d, want 24", e.AliveCount())
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomKillDeterministic(t *testing.T) {
	e1 := newEngine(true, nil)
	e2 := newEngine(true, nil)
	rk := RandomKill{Count: 5, N: 25, At: 100, Seed: 7}
	rk.Apply(e1)
	rk.Apply(e2)
	s1 := e1.Run(poisson(5, 3))
	s2 := e2.Run(poisson(5, 3))
	if s1 != s2 {
		t.Fatal("random kill not deterministic")
	}
	if e1.AliveCount() != 20 {
		t.Fatalf("alive %d, want 20", e1.AliveCount())
	}
}

func TestRandomKillTooManyPanics(t *testing.T) {
	e := newEngine(true, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomKill{Count: 26, N: 25, At: 1}.Apply(e)
}

func TestRegionTargets(t *testing.T) {
	r := Region{Rows: 5, Cols: 5, R0: 1, R1: 3, C0: 2, C1: 4}
	got := r.Targets()
	want := []topology.NodeID{7, 8, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("targets %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("targets %v, want %v", got, want)
		}
	}
}

func TestRegionOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Region{Rows: 5, Cols: 5, R0: 0, R1: 6, C0: 0, C1: 1}.Targets()
}

func TestRegionSurvivability(t *testing.T) {
	// Take out a 2x2 corner mid-run with rerouting (migration path): the
	// system must keep admitting most tasks — the paper's survivability
	// claim.
	e := newEngine(true, nil)
	Region{Rows: 5, Cols: 5, R0: 0, R1: 2, C0: 0, C1: 2, At: 200, Revive: 400}.Apply(e)
	st := e.Run(poisson(4, 4))
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if p := st.AdmissionProbability(); p < 0.9 {
		t.Fatalf("admission %v under regional attack, want ≥0.9", p)
	}
}

func TestFlap(t *testing.T) {
	e := newEngine(true, nil)
	Flap{Target: 12, Start: 100, DownFor: 20, UpFor: 20, Until: 500}.Apply(e)
	st := e.Run(poisson(4, 5))
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Node 12 flapped ten times; the last cycle at t=480 has no revive
	// before Until, so it ends down... Start+k*40: kills at 100,140,...
	// revive at 120,160,...; at 500 the node was revived at 500-20=480?
	// kills at 100+40k; revives at 120+40k < 500 → last revive 480: up.
	if !e.Node(12).Alive() {
		t.Fatal("flapping node should end alive")
	}
	if p := st.AdmissionProbability(); p < 0.85 {
		t.Fatalf("admission %v under flapping", p)
	}
}

func TestNodeChurn(t *testing.T) {
	e := newEngine(true, nil)
	NodeChurn{Start: 100, Until: 500, Interval: 10, Down: 30, N: 25, Seed: 9}.Apply(e)
	var sawDown bool
	for probe := sim.Time(150); probe < 500; probe += 50 {
		e.Scheduler().At(probe, func(sim.Time) {
			if e.AliveCount() < 25 {
				sawDown = true
			}
		})
	}
	st := e.Run(poisson(4, 6))
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sawDown {
		t.Fatal("churn never took a node down")
	}
	// Every kill schedules its revive; the last one lands by 500+30, well
	// inside the settle window, so the run ends at full strength.
	if e.AliveCount() != 25 {
		t.Fatalf("alive %d at end, want 25", e.AliveCount())
	}
	if p := st.AdmissionProbability(); p < 0.8 {
		t.Fatalf("admission %v under node churn", p)
	}
}

func TestNodeChurnDeterministic(t *testing.T) {
	run := func() metrics.RunStats {
		e := newEngine(true, nil)
		NodeChurn{Start: 100, Until: 400, Interval: 5, Down: 20, N: 25, Seed: 3}.Apply(e)
		return e.Run(poisson(4, 7))
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestNodeChurnInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero interval")
		}
	}()
	NodeChurn{Start: 0, Until: 10, Interval: 0, Down: 1, N: 5}.Apply(newEngine(true, nil))
}

func TestFlapInvalidPanics(t *testing.T) {
	e := newEngine(true, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Flap{Target: 1, DownFor: 0, UpFor: 1, Until: 10}.Apply(e)
}

func TestExhaustSaturatesVictim(t *testing.T) {
	e := newEngine(true, nil)
	Exhaust{Target: 6, At: 100, Until: 590, Interval: 1, Chunk: 50}.Apply(e)
	st := e.Run(poisson(3, 6))
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// The victim stays alive but pinned at (or near) full queue. (The
	// last injection was at t=589; the queue drains ~12s of grace period
	// before the clock stops, so "near full" is ≥0.8.)
	if u := e.Node(6).Usage(e.Scheduler().Now()); u < 0.8 {
		t.Fatalf("victim usage %v, want ≈1", u)
	}
	// Other nodes absorb the victim's arrivals via migration.
	if st.Migrated == 0 {
		t.Fatal("no migrations away from exhausted node")
	}
}

func TestExhaustInvalidPanics(t *testing.T) {
	e := newEngine(true, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Exhaust{Target: 1, At: 0, Until: 10, Interval: 0, Chunk: 1}.Apply(e)
}

func TestCompositeAndNames(t *testing.T) {
	c := Composite{Label: "mixed", Parts: []Scenario{
		Kill{Targets: []topology.NodeID{1}, At: 100},
		Flap{Target: 2, Start: 100, DownFor: 10, UpFor: 10, Until: 200},
	}}
	if c.Name() != "mixed" {
		t.Fatal("composite name")
	}
	for _, s := range []Scenario{
		Kill{Targets: []topology.NodeID{1}, At: 5},
		RandomKill{Count: 2, N: 25, At: 5},
		Region{Rows: 5, Cols: 5, R0: 0, R1: 1, C0: 0, C1: 1, At: 5},
		Flap{Target: 1, Start: 0, DownFor: 1, UpFor: 1, Until: 5},
		Exhaust{Target: 1, At: 0, Until: 5, Interval: 1, Chunk: 1},
	} {
		if s.Name() == "" {
			t.Fatalf("%T has empty name", s)
		}
	}
	e := newEngine(true, nil)
	c.Apply(e)
	st := e.Run(poisson(3, 7))
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBinnedTimelineShowsDip(t *testing.T) {
	// Without rerouting, killing 8 nodes makes admission dip during the
	// outage and recover afterwards — visible in the binned timeline.
	tl := metrics.Timeline{Width: 50}
	e := newEngine(false, &tl)
	RandomKill{Count: 8, N: 25, At: 200, Revive: 400, Seed: 3}.Apply(e)
	st := e.Run(poisson(4, 8))
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	bins := tl.Bins
	if len(bins) < 10 {
		t.Fatalf("bins %d", len(bins))
	}
	before := bins[2].AdmissionProbability() // t=100..150
	during := bins[5].AdmissionProbability() // t=250..300
	after := bins[9].AdmissionProbability()  // t=450..500
	if during >= before {
		t.Fatalf("no dip: before=%v during=%v", before, during)
	}
	if after <= during {
		t.Fatalf("no recovery: during=%v after=%v", during, after)
	}
}

func TestDowngradeAndRestore(t *testing.T) {
	cfg := engine.Config{
		Graph:         topology.Mesh(5, 5),
		QueueCapacity: 100,
		HopDelay:      0.01,
		Threshold:     0.9,
		Warmup:        50,
		Duration:      600,
		Seed:          1,
	}
	attrs := make([]resource.Attrs, 25)
	for i := range attrs {
		attrs[i] = resource.Attrs{Security: 2}
	}
	cfg.Attrs = attrs
	e := engine.New(cfg, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
	d := Downgrade{Targets: []topology.NodeID{4, 9}, At: 100, Restore: 300, Security: 0}
	if d.Name() == "" {
		t.Fatal("empty name")
	}
	d.Apply(e)
	e.Scheduler().At(200, func(sim.Time) {
		if e.Attrs(4).Security != 0 || e.Attrs(9).Security != 0 {
			t.Error("downgrade not applied at t=200")
		}
		if e.Attrs(3).Security != 2 {
			t.Error("downgrade hit a non-target")
		}
	})
	e.Scheduler().At(400, func(sim.Time) {
		if e.Attrs(4).Security != 2 {
			t.Error("attributes not restored at t=400")
		}
	})
	st := e.Run(poisson(3, 2))
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}
