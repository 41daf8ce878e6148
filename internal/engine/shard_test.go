package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"realtor/internal/core"
	"realtor/internal/metrics"
	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
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
	timeline metrics.Timeline
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
	at       sim.Time
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

func (r *seqRecorder) onOutcome(t workload.Task, at sim.Time, admitted bool) {
	r.outcomes = append(r.outcomes, outcomeSum{arrive: t.Arrive, at: at, node: t.Node, size: t.Size, admitted: admitted})
	r.merged = append(r.merged, 'o')
	r.timeline.Record(float64(t.Arrive), admitted)
}

// runShardScenario drives one adversarial fixed-seed scenario — loss,
// dead-node rerouting, node churn, link churn, retries — at the given
// shard count and returns everything observable, including the
// admission timeline its outcomes bucket into 50-second bins.
func runShardScenario(t *testing.T, shards int) (*seqRecorder, string) {
	t.Helper()
	rec := &seqRecorder{timeline: metrics.Timeline{Width: 50}}
	cfg := Config{
		Graph:               topology.Mesh(10, 10),
		QueueCapacity:       20, // small enough that queues cross the help threshold and tasks migrate
		HopDelay:            0.01,
		Threshold:           0.9,
		Warmup:              20,
		Duration:            220,
		Shards:              shards,
		FloodRadius:         2,
		LossProb:            0.05,
		RerouteDeadArrivals: true,
		MaxTries:            2,
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
	return rec, fmt.Sprintf("%+v", st)
}

// TestShardedRunByteIdentical is the kernel's core promise: the same
// scenario produces the same statistics, the same admission timeline,
// and the same observable event sequence — ordering included — at any
// shard count.
func TestShardedRunByteIdentical(t *testing.T) {
	ref, refStats := runShardScenario(t, 1)
	if len(ref.traces) == 0 || len(ref.msgs) == 0 || len(ref.outcomes) == 0 || len(ref.timeline.Bins) < 4 {
		t.Fatal("reference run observed nothing; scenario is vacuous")
	}
	placedLater := 0 // verdicts decided after the arrival instant: migrations
	for _, o := range ref.outcomes {
		if o.admitted && o.at != o.arrive {
			placedLater++
		}
	}
	if placedLater == 0 {
		t.Fatal("no task was placed by migration; the replayed verdict instants go unchecked")
	}
	for _, shards := range []int{2, 4, 8} {
		got, stats := runShardScenario(t, shards)
		if stats != refStats {
			t.Fatalf("shards=%d: stats diverged\n got %s\nwant %s", shards, stats, refStats)
		}
		if !reflect.DeepEqual(got.timeline, ref.timeline) {
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
	ref, _ := runShardScenario(t, 1)
	got, _ := runShardScenario(t, 2)
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

// panicker is REALTOR that panics on a message delivered to node at
// from t=100 on, when both shards are busy.
type panicker struct {
	*core.Realtor
	env protocol.Env
	at  topology.NodeID
}

func (p *panicker) Attach(env protocol.Env) {
	p.env = env
	p.Realtor.Attach(env)
}

func (p *panicker) Deliver(m protocol.Message) {
	if p.env.Self() == p.at && p.env.Now() >= 100 {
		panic("panicker: deliver")
	}
	p.Realtor.Deliver(m)
}

// A handler that panics on a shard worker's goroutine does not end the
// process: the worker keeps the value, and the run re-raises it on the
// caller's goroutine once every worker is idle, so the caller (a
// daemon's job runner, say) can recover it.
func TestShardWorkerPanicReachesCaller(t *testing.T) {
	cfg := Config{
		Graph:         topology.Mesh(10, 10),
		QueueCapacity: 20,
		HopDelay:      0.01,
		Threshold:     0.9,
		Duration:      200,
		Shards:        2,
		Seed:          7,
	}
	at := topology.NodeID(cfg.Graph.N() - 1) // shard bands are contiguous: the last node is on shard 1
	e := New(cfg, func() protocol.Discovery {
		return &panicker{Realtor: core.New(protocol.DefaultConfig()), at: at}
	})
	if e.shardOf[at] != 1 {
		t.Fatalf("node %d is on shard %d, want 1", at, e.shardOf[at])
	}
	defer func() {
		v := recover()
		p, ok := v.(*workerPanic)
		if !ok || p.value != "panicker: deliver" {
			t.Fatalf("recovered %v, want the handler's panic", v)
		}
		if !strings.Contains(string(p.stack), "(*panicker).Deliver") {
			t.Fatalf("carried stack does not name the handler:\n%s", p.stack)
		}
		// Kept by the worker, not raised inline by a one-shard phase on
		// the coordinator: the worker path is the one under test.
		if e.ctxs[1].panicked == nil {
			t.Fatal("the panic did not happen on shard 1's worker")
		}
	}()
	e.Run(workload.NewPoisson(20, 5, cfg.Graph.N(), rng.New(3)))
	t.Fatal("the run returned although a handler panicked")
}

// zeroTimer arms a zero-delay timer on every delivery: an event at the
// delivery's own instant, keyed in the recipient's namespace.
type zeroTimer struct {
	protocoltest.Inert
	env protocol.Env
}

func (z *zeroTimer) Attach(env protocol.Env)  { z.env = env }
func (z *zeroTimer) Deliver(protocol.Message) { z.env.After(0, func() {}) }

// A handler that schedules an event at its own instant under a lower
// src is the one order the barrier replay would get backwards, so the
// sharded kernel refuses it, naming both keys: node 50 (shard 1) floods
// at t=1, and its neighbour 40 (shard 0) answers the delivery at 1.01
// with a zero-delay timer in namespace 40 < 50. The one-shard kernel
// fires such an event after its cause and runs the same schedule to the
// end.
func TestSameInstantLowerSrcPanicsOnShards(t *testing.T) {
	run := func(shards int) {
		cfg := Config{
			Graph:         topology.Mesh(10, 10),
			QueueCapacity: 20,
			HopDelay:      0.01,
			Threshold:     0.9,
			Duration:      5,
			Shards:        shards,
			Seed:          7,
		}
		e := New(cfg, func() protocol.Discovery { return &zeroTimer{} })
		if shards > 1 && (e.shardOf[40] != 0 || e.shardOf[50] != 1) {
			t.Fatalf("nodes 40 and 50 sit on shards %d and %d, want 0 and 1", e.shardOf[40], e.shardOf[50])
		}
		e.At(1, func(sim.Time) { e.envs[50].Flood(protocol.Message{Kind: protocol.Help, From: 50}) })
		e.Run(workload.NewPoisson(1, 1, cfg.Graph.N(), rng.New(3)))
	}
	run(1)

	defer func() {
		v := recover()
		if p, ok := v.(*workerPanic); ok {
			v = p.value
		}
		msg, _ := v.(string)
		want := regexp.MustCompile(`^engine: event \{When:1\.01 Src:(\d+) Seq:\d+\} scheduled at the instant of the executing event \{When:1\.01 Src:50 Seq:\d+\} under a lower src`)
		m := want.FindStringSubmatch(msg)
		if m == nil {
			t.Fatalf("recovered %v, want the ordering panic naming both keys", v)
		}
		if src, _ := strconv.Atoi(m[1]); src >= 50 {
			t.Fatalf("the panic names src %d, not one below the sender's 50: %s", src, msg)
		}
	}()
	run(2)
	t.Fatal("a 2-shard run scheduled a same-instant event under a lower src without panicking")
}
