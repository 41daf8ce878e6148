package engine

import (
	"testing"

	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// leftOfCol is the left-side predicate for a 5-column mesh bisection.
func leftOfCol(col int) func(topology.NodeID) bool {
	return func(id topology.NodeID) bool { return int(id)%5 < col }
}

// TestCutLinkIsCopyOnWrite: mutating the live view must clone first,
// leaving the configured (possibly shared) graph pristine — the
// invariant the parallel experiment runner depends on.
func TestCutLinkIsCopyOnWrite(t *testing.T) {
	cfg := testEngineConfig()
	e := New(cfg, builders()["realtor"])
	if e.Graph() != cfg.Graph {
		t.Fatal("live view should alias cfg.Graph before any mutation")
	}
	if !e.CutLink(0, 1) {
		t.Fatal("CutLink(0,1) failed on a mesh link")
	}
	if e.CutLink(0, 1) {
		t.Fatal("second CutLink(0,1) reported a change")
	}
	if e.Graph() == cfg.Graph {
		t.Fatal("live view still aliases cfg.Graph after mutation")
	}
	if cfg.Graph.Links() != 40 || !cfg.Graph.Connected() {
		t.Fatalf("pristine graph mutated: links=%d", cfg.Graph.Links())
	}
	if e.Graph().Links() != 39 {
		t.Fatalf("live view links=%d, want 39", e.Graph().Links())
	}
	if !e.RestoreLink(0, 1) {
		t.Fatal("RestoreLink(0,1) failed")
	}
	if e.RestoreLink(0, 1) {
		t.Fatal("second RestoreLink(0,1) reported a change")
	}
}

// TestNoOpLinkMutationKeepsSharedGraph: cutting an absent link and
// restoring a present one are legal no-ops (attack.LinkCut feeds
// user-supplied link lists). They must not clone the configured graph —
// that would retire the scope-distance fast path for the rest of the run —
// nor trace an event, nor do any distance work.
func TestNoOpLinkMutationKeepsSharedGraph(t *testing.T) {
	buf := &trace.Buffer{}
	cfg := testEngineConfig()
	cfg.Trace = buf
	e := New(cfg, builders()["realtor"])
	if e.CutLink(0, 6) { // diagonal: never a mesh link
		t.Fatal("CutLink of an absent link reported a change")
	}
	if e.RestoreLink(0, 1) {
		t.Fatal("RestoreLink of a present link reported a change")
	}
	if e.Graph() != cfg.Graph {
		t.Fatal("a no-op link mutation cloned the configured graph")
	}
	if e.ownsGraph {
		t.Fatal("a no-op link mutation retired the scope-distance fast path")
	}
	if n := len(buf.OfKind(trace.LinkCut)) + len(buf.OfKind(trace.LinkRestore)); n != 0 {
		t.Fatalf("no-op link mutations traced %d events", n)
	}
	if st := e.Graph().DistStats(); st != (topology.DistStats{}) {
		t.Fatalf("no-op link mutations did distance work: %+v", st)
	}
}

// TestMalformedLinkPairPanics: attack.LinkCut hands user- and
// fuzzer-supplied pairs straight to the engine, so a self-link or an
// out-of-range endpoint must panic with topology's diagnostic before the
// no-op shortcut can swallow it — for cuts and restores alike.
func TestMalformedLinkPairPanics(t *testing.T) {
	e := New(testEngineConfig(), builders()["realtor"])
	n := topology.NodeID(e.Graph().N())
	for _, p := range [][2]topology.NodeID{{3, 3}, {0, n}, {n, 0}, {-1, 2}} {
		for name, mutate := range map[string]func(a, b topology.NodeID) bool{
			"CutLink": e.CutLink, "RestoreLink": e.RestoreLink,
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d,%d) did not panic", name, p[0], p[1])
					}
				}()
				mutate(p[0], p[1])
			}()
		}
	}
	if e.ownsGraph {
		t.Fatal("a rejected pair cloned the configured graph")
	}
}

// A mid-run bisection must drop cross-side deliveries (counted as
// partition drops), emit link-cut/link-restore trace events, and heal
// back to a connected overlay.
func TestPartitionDropsCrossSideDeliveries(t *testing.T) {
	buf := &trace.Buffer{}
	cfg := testEngineConfig()
	cfg.Trace = buf
	e := New(cfg, builders()["realtor"])

	cut := cfg.Graph.Bisect(leftOfCol(2))
	if len(cut) != 5 {
		t.Fatalf("bisect found %d crossing links, want 5", len(cut))
	}
	e.Scheduler().At(100, func(sim.Time) {
		for _, l := range cut {
			e.CutLink(l[0], l[1])
		}
		if e.Graph().Connected() {
			t.Error("overlay still connected after bisection")
		}
	})
	e.Scheduler().At(400, func(sim.Time) {
		for _, l := range cut {
			e.RestoreLink(l[0], l[1])
		}
		if !e.Graph().Connected() {
			t.Error("overlay not connected after heal")
		}
	})

	src := workload.NewPoisson(6, 5, cfg.Graph.N(), rng.New(1))
	st := e.Run(src)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.PartitionDrops == 0 {
		t.Fatal("no partition drops recorded across a 300s split under load")
	}
	if got := len(buf.OfKind(trace.LinkCut)); got != 5 {
		t.Fatalf("%d link-cut events, want 5", got)
	}
	if got := len(buf.OfKind(trace.LinkRestore)); got != 5 {
		t.Fatalf("%d link-restore events, want 5", got)
	}
	if got := len(buf.OfKind(trace.MsgDrop)); uint64(got) != st.PartitionDrops {
		// Trace runs for the whole run; stats only inside the window.
		if uint64(got) < st.PartitionDrops {
			t.Fatalf("msg-drop events %d < counted partition drops %d", got, st.PartitionDrops)
		}
	}
}

// Migration must never target a candidate the live overlay cannot
// reach, even when the availability list still holds stale entries from
// before the split.
func TestMigrationSkipsUnreachableCandidates(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Duration = 600
	cut := cfg.Graph.Bisect(leftOfCol(2))

	migrations := map[[2]bool]int{} // [fromLeft, toLeft] → count
	split := false
	cfg.Trace = traceFunc(func(ev trace.Event) {
		if ev.Kind == trace.MigrateTry && split {
			migrations[[2]bool{leftOfCol(2)(ev.Node), leftOfCol(2)(ev.Peer)}]++
		}
	})
	e := New(cfg, builders()["realtor"])
	e.Scheduler().At(200, func(sim.Time) {
		split = true
		for _, l := range cut {
			e.CutLink(l[0], l[1])
		}
	})
	src := workload.NewPoisson(8, 5, cfg.Graph.N(), rng.New(3))
	e.Run(src)
	if migrations[[2]bool{true, false}] != 0 || migrations[[2]bool{false, true}] != 0 {
		t.Fatalf("cross-side migration tries during split: %v", migrations)
	}
	if migrations[[2]bool{true, true}]+migrations[[2]bool{false, false}] == 0 {
		t.Fatal("no same-side migration tries during split at λ=8 — test is vacuous")
	}
}

type traceFunc func(trace.Event)

func (f traceFunc) Record(e trace.Event) { f(e) }

// LossProb == 1 is a total discovery blackout. A node too small to host
// anything locally then rejects every task: no pledge ever arrives, so
// there is never a migration candidate. The same setup with a healthy
// network admits nearly everything — the contrast proves the blackout,
// not the workload, causes the zero.
func TestTotalBlackoutAdmissionHitsZero(t *testing.T) {
	run := func(loss float64) (admitted, offered uint64) {
		g := topology.Mesh(3, 3)
		caps := make([]float64, g.N())
		caps[0] = 1 // node 0 can never hold a 5s task locally
		for i := 1; i < g.N(); i++ {
			caps[i] = 100
		}
		cfg := Config{
			Graph:         g,
			QueueCapacity: 100,
			Capacities:    caps,
			HopDelay:      0.01,
			Threshold:     0.9,
			Warmup:        10,
			Duration:      300,
			Seed:          5,
			LossProb:      loss,
		}
		e := New(cfg, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
		// Fixed-size tasks, all landing on the tiny node: every admission
		// requires discovering a remote host.
		var tasks []workload.Task
		for at := sim.Time(0); at < cfg.Duration; at += 0.5 {
			tasks = append(tasks, workload.Task{
				ID: uint64(len(tasks)), Node: 0, Size: 5, Arrive: at,
			})
		}
		st := e.Run(workload.NewTrace(tasks))
		return st.Admitted, st.Offered
	}
	adm, off := run(1)
	if off == 0 {
		t.Fatal("no offered tasks")
	}
	if adm != 0 {
		t.Fatalf("admitted %d/%d under total blackout, want 0", adm, off)
	}
	adm0, off0 := run(0)
	if float64(adm0)/float64(off0) < 0.9 {
		t.Fatalf("healthy-network control admitted only %d/%d", adm0, off0)
	}
}

func TestLossProbValidationBounds(t *testing.T) {
	good := testEngineConfig()
	good.LossProb = 1
	if err := good.Validate(); err != nil {
		t.Fatalf("LossProb=1 rejected: %v", err)
	}
	for _, bad := range []float64{-0.01, 1.01} {
		c := testEngineConfig()
		c.LossProb = bad
		if c.Validate() == nil {
			t.Fatalf("LossProb=%v accepted", bad)
		}
	}
}
