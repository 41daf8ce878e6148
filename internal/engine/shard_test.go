package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// seqRecorder captures the full observable surface of a run — trace
// events, observer callbacks (summarized), and task outcomes — as one
// flat sequence, so tests can assert that a sharded run replays the
// single-shard run exactly, ordering included.
type seqRecorder struct {
	traces   []trace.Event
	msgs     []msgRec
	outcomes []outcomeSum
	// merged is the one log a consumer of both Trace and OnOutcome keeps:
	// 't' per trace event, 'o' per outcome, in callback order.
	merged []byte
}

type msgRec struct {
	kind   string
	at     sim.Time
	from   topology.NodeID
	to     topology.NodeID
	mkind  protocol.Kind
	reason string
}

type outcomeSum struct {
	arrive   sim.Time
	node     topology.NodeID
	size     float64
	admitted bool
}

func (r *seqRecorder) Record(ev trace.Event) {
	r.traces = append(r.traces, ev)
	r.merged = append(r.merged, 't')
}

func (r *seqRecorder) OnSend(at sim.Time, from, to topology.NodeID, m protocol.Message) {
	r.msgs = append(r.msgs, msgRec{kind: "send", at: at, from: from, to: to, mkind: m.Kind})
}
func (r *seqRecorder) OnDeliver(at sim.Time, to topology.NodeID, m protocol.Message) {
	r.msgs = append(r.msgs, msgRec{kind: "deliver", at: at, to: to, mkind: m.Kind})
}
func (r *seqRecorder) OnDrop(at sim.Time, from, to topology.NodeID, m protocol.Message, reason string) {
	r.msgs = append(r.msgs, msgRec{kind: "drop", at: at, from: from, to: to, mkind: m.Kind, reason: reason})
}
func (r *seqRecorder) OnInject(at sim.Time, id topology.NodeID, size float64) {
	r.msgs = append(r.msgs, msgRec{kind: "inject", at: at, to: id})
}

func (r *seqRecorder) onOutcome(t workload.Task, admitted bool) {
	r.outcomes = append(r.outcomes, outcomeSum{arrive: t.Arrive, node: t.Node, size: t.Size, admitted: admitted})
	r.merged = append(r.merged, 'o')
}

// runShardScenario drives one adversarial fixed-seed scenario — loss,
// dead-node rerouting, node churn, link churn, retries, binning — at
// the given shard count and returns everything observable.
func runShardScenario(t *testing.T, shards int) (*seqRecorder, []Bin, string) {
	t.Helper()
	rec := &seqRecorder{}
	cfg := Config{
		Graph:               topology.Mesh(10, 10),
		QueueCapacity:       100,
		HopDelay:            0.01,
		Threshold:           0.9,
		Warmup:              20,
		Duration:            220,
		Shards:              shards,
		FloodRadius:         2,
		LossProb:            0.05,
		RerouteDeadArrivals: true,
		MaxTries:            2,
		BinWidth:            50,
		Seed:                7,
		Trace:               rec,
		Observer:            rec,
		OnOutcome:           rec.onOutcome,
	}
	e := New(cfg, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
	// Global fault events: these run alone at phase barriers in sharded
	// mode, and inline in single-shard mode — either way at the same
	// simulated instants.
	s := e.Scheduler()
	s.At(60, func(sim.Time) { e.Kill(33); e.Kill(34) })
	s.At(80, func(sim.Time) { e.CutLink(44, 45); e.CutLink(44, 54) })
	s.At(120, func(sim.Time) { e.Revive(33); e.RestoreLink(44, 45) })
	s.At(150, func(sim.Time) { e.Inject(150, 11, 40) })
	st := e.Run(workload.NewPoisson(8, 5, cfg.Graph.N(), rng.New(99)))
	return rec, e.Bins(), fmt.Sprintf("%+v", st)
}

// TestShardedRunByteIdentical is the kernel's core promise: the same
// scenario produces the same statistics, the same admission timeline,
// and the same observable event sequence — ordering included — at any
// shard count.
func TestShardedRunByteIdentical(t *testing.T) {
	ref, refBins, refStats := runShardScenario(t, 1)
	if len(ref.traces) == 0 || len(ref.msgs) == 0 || len(ref.outcomes) == 0 {
		t.Fatal("reference run observed nothing; scenario is vacuous")
	}
	for _, shards := range []int{2, 4, 8} {
		got, bins, stats := runShardScenario(t, shards)
		if stats != refStats {
			t.Fatalf("shards=%d: stats diverged\n got %s\nwant %s", shards, stats, refStats)
		}
		if !reflect.DeepEqual(bins, refBins) {
			t.Fatalf("shards=%d: admission timeline diverged", shards)
		}
		if !reflect.DeepEqual(got.outcomes, ref.outcomes) {
			t.Fatalf("shards=%d: outcome sequence diverged (%d vs %d entries)",
				shards, len(got.outcomes), len(ref.outcomes))
		}
		for i := range ref.traces {
			if i >= len(got.traces) || got.traces[i] != ref.traces[i] {
				t.Fatalf("shards=%d: trace diverged at %d:\n got %+v\nwant %+v",
					shards, i, got.traces[i], ref.traces[i])
			}
		}
		if len(got.traces) != len(ref.traces) {
			t.Fatalf("shards=%d: trace length %d, want %d", shards, len(got.traces), len(ref.traces))
		}
		if !reflect.DeepEqual(got.msgs, ref.msgs) {
			t.Fatalf("shards=%d: observer sequence diverged (%d vs %d entries)",
				shards, len(got.msgs), len(ref.msgs))
		}
	}
}

// Buffered hooks replay as one sequence: a consumer feeding one log from
// both Trace and OnOutcome sees a task's outcome between the trace
// events around it, as on one shard — not after the phase's last trace
// event, which is where a second buffer with its own sort put it.
func TestShardedReplayInterleavesOutcomesWithTrace(t *testing.T) {
	ref, _, _ := runShardScenario(t, 1)
	got, _, _ := runShardScenario(t, 2)
	if !bytes.Equal(got.merged, ref.merged) {
		i := 0
		for i < len(got.merged) && i < len(ref.merged) && got.merged[i] == ref.merged[i] {
			i++
		}
		t.Fatalf("trace/outcome interleaving diverged at callback %d of %d (2 shards: %d)",
			i, len(ref.merged), len(got.merged))
	}
}

// TestShardedStatsMatchAcrossProtocols runs every protocol at 1 and 4
// shards on a clean mesh and demands equal stats — the cheap broad
// sweep behind the adversarial scenario above.
func TestShardedStatsMatchAcrossProtocols(t *testing.T) {
	for name, b := range builders() {
		var want string
		for i, shards := range []int{1, 4} {
			cfg := testEngineConfig()
			cfg.Graph = topology.Mesh(8, 8)
			cfg.Duration = 200
			cfg.Shards = shards
			e := New(cfg, b)
			st := e.Run(workload.NewPoisson(6, 5, cfg.Graph.N(), rng.New(3)))
			if i == 0 {
				want = fmt.Sprintf("%+v", st)
			} else if got := fmt.Sprintf("%+v", st); got != want {
				t.Fatalf("%s: shards=%d stats %s, want %s", name, shards, got, want)
			}
		}
	}
}

// TestShardValidation pins the config contract: sharding needs real
// per-hop latency to have any lookahead to run under.
func TestShardValidation(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Shards = 4
	cfg.HopDelay = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("Shards > 1 with zero HopDelay must not validate")
	}
	cfg.HopDelay = 0.01
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}
	cfg.Shards = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Shards must not validate")
	}
}

// TestShardCountClamped: more shards than nodes degrades to one shard
// per node, and a 1-shard engine reports the classic kernel.
func TestShardCountClamped(t *testing.T) {
	cfg := testEngineConfig() // 5×5 mesh
	cfg.Shards = 64
	e := New(cfg, builders()["realtor"])
	if e.Shards() != 25 {
		t.Fatalf("shards clamped to %d, want 25", e.Shards())
	}
	cfg.Shards = 0
	if New(cfg, builders()["realtor"]).Shards() != 1 {
		t.Fatal("Shards=0 must mean the single-threaded kernel")
	}
}

// TestKernelStatsCounters pins the diagnostic counter surface behind
// `realtor-sim -kernelstats`: a completed run fires everything it
// schedules minus explicit cancellations, leaves nothing pending, and
// reuses pooled slots at steady state. At >1 shard the counters sum the
// global plus per-shard schedulers and must keep the same invariants.
func TestKernelStatsCounters(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := Config{
			Graph:         topology.Mesh(4, 4),
			QueueCapacity: 50,
			HopDelay:      0.01,
			Threshold:     0.9,
			Warmup:        10,
			Duration:      200,
			Seed:          3,
			Shards:        shards,
		}
		e := New(cfg, func() protocol.Discovery { return core.New(protocol.DefaultConfig()) })
		st := e.Run(workload.NewPoisson(4, 5, 16, rng.New(3)))
		ks := e.KernelStats()
		if st.Offered == 0 {
			t.Fatalf("shards=%d: vacuous run", shards)
		}
		if ks.Scheduled == 0 || ks.Fired == 0 || ks.Fired > ks.Scheduled {
			t.Fatalf("shards=%d: implausible counters %+v", shards, ks)
		}
		// Timers scheduled past Duration legitimately stay queued at
		// cutoff, but never more than the schedule/fire gap accounts for.
		if uint64(ks.Pending) > ks.Scheduled-ks.Fired {
			t.Fatalf("shards=%d: %d pending exceeds %d unfired", shards, ks.Pending, ks.Scheduled-ks.Fired)
		}
		if ks.Reused == 0 || ks.PoolSize == 0 {
			t.Fatalf("shards=%d: pool never reused a slot: %+v", shards, ks)
		}
	}
}
