package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// record is one thing a run showed an observer: a trace event, an
// observer callback with its complete message, or a task outcome.
type record struct {
	what     string
	ev       trace.Event
	at       sim.Time
	from, to topology.NodeID
	m        protocol.Message
	reason   string
	task     workload.Task
	admitted bool
}

// fullRecorder captures everything a run lets anyone see, in the order
// it was shown. Two runs with equal recordings are indistinguishable to
// every consumer the engine has.
type fullRecorder struct {
	log []record
}

// keep detaches m from the sender's View buffer, which it may reuse.
func keep(m protocol.Message) protocol.Message {
	m.View = append([]protocol.Candidate(nil), m.View...)
	return m
}

func (r *fullRecorder) Record(ev trace.Event) {
	r.log = append(r.log, record{what: "trace", ev: ev})
}
func (r *fullRecorder) OnSend(at sim.Time, from, to topology.NodeID, m protocol.Message) {
	r.log = append(r.log, record{what: "send", at: at, from: from, to: to, m: keep(m)})
}
func (r *fullRecorder) OnDeliver(at sim.Time, to topology.NodeID, m protocol.Message) {
	r.log = append(r.log, record{what: "deliver", at: at, to: to, m: keep(m)})
}
func (r *fullRecorder) OnDrop(at sim.Time, from, to topology.NodeID, m protocol.Message, reason string) {
	r.log = append(r.log, record{what: "drop", at: at, from: from, to: to, m: keep(m), reason: reason})
}
func (r *fullRecorder) OnInject(at sim.Time, id topology.NodeID, size float64) {
	r.log = append(r.log, record{what: "inject", at: at, to: id, task: workload.Task{Size: size}})
}

// onOutcome leaves the verdict instant out of the record, so the
// baseline digests pinned before the hook carried it still apply;
// TestShardedRunByteIdentical compares it across shard counts.
func (r *fullRecorder) onOutcome(t workload.Task, _ sim.Time, admitted bool) {
	r.log = append(r.log, record{what: "outcome", task: t, admitted: admitted})
}

// runRecorded replays scenario s on graph g with the given builder and
// shard count and returns the full recording, the final statistics and
// the engine.
func runRecorded(s fuzzscen.Scenario, g *topology.Graph, build engine.Builder, shards int) ([]record, string, *engine.Engine) {
	rec := &fullRecorder{}
	cfg := s.EngineConfig(g)
	cfg.Shards = shards
	cfg.Trace, cfg.Observer, cfg.OnOutcome = rec, rec, rec.onOutcome
	e := engine.New(cfg, build)
	for _, a := range s.Attacks() {
		a.Apply(e)
	}
	st := e.Run(s.Workload(g))
	return rec.log, fmt.Sprintf("%+v", st), e
}

// equivProto is one discovery protocol as a way to build it for a
// scenario (setting the scenario's Discovery field as a side effect, so
// the engine config scopes floods the way that protocol expects).
type equivProto struct {
	name  string
	build func(*fuzzscen.Scenario) engine.Builder
}

// equivProtocols lists every discovery protocol in the tree: the three
// fuzzscen.Builder knows by name (flood REALTOR, the DHT, and the
// hierarchy, which scopes floods by engine Groups; Builder's "fed" is
// the same hier.H at depth 1 and reaches no engine or protocol code the
// hier row misses) and the four baselines it does not.
func equivProtocols() []equivProto {
	overlay := func(d string) func(*fuzzscen.Scenario) engine.Builder {
		return func(s *fuzzscen.Scenario) engine.Builder {
			s.Discovery = d
			return fuzzscen.Builder(*s)
		}
	}
	plain := func(mk func(protocol.Config) protocol.Discovery) func(*fuzzscen.Scenario) engine.Builder {
		return func(s *fuzzscen.Scenario) engine.Builder {
			s.Discovery = ""
			cfg := s.ProtocolConfig()
			return func() protocol.Discovery { return mk(cfg) }
		}
	}
	return []equivProto{
		{"realtor", overlay("")},
		{"dht", overlay("dht")},
		{"hier", overlay("hier")},
		{"purepush", plain(func(c protocol.Config) protocol.Discovery { return core.NewPurePush(c) })},
		{"adpush", plain(func(c protocol.Config) protocol.Discovery { return core.NewAdaptivePush(c) })},
		{"purepull", plain(func(c protocol.Config) protocol.Discovery { return core.NewPurePull(c) })},
		{"adpull", plain(func(c protocol.Config) protocol.Discovery { return core.NewAdaptivePull(c) })},
	}
}

// equivScenario is generated scenario `seed` with the dimensions under
// test pinned: the loss probability, the flood radius, and a fault
// schedule that always holds a kill-and-revive and a spell of link
// churn on top of whatever the generator drew.
func equivScenario(seed int64, loss float64, radius int) fuzzscen.Scenario {
	s := fuzzscen.Generate(seed)
	if s.Duration > 30 {
		s.Duration = 30
	}
	s.LossProb, s.FloodRadius = loss, radius
	kept := s.Events[:0:0]
	for _, ev := range s.Events {
		if ev.At < s.Duration-2 {
			kept = append(kept, ev)
		}
	}
	s.Events = append(kept,
		fuzzscen.Event{Op: "kill", At: 0.3 * s.Duration, Until: 0.3*s.Duration + 2.005, Node: int(seed) % s.Nodes()},
		fuzzscen.Event{Op: "churn", At: 0.5 * s.Duration, Until: 0.5*s.Duration + 6,
			Interval: 0.7, Down: 1.3, Seed: seed},
	)
	return s
}

// requireSameRun replays s through the per-message reference and
// through the wave and fails on the first record where they differ.
func requireSameRun(t *testing.T, name string, s fuzzscen.Scenario, build engine.Builder, shards int) {
	t.Helper()
	want, wantStats, _ := runRecorded(s, s.Graph(), engine.PerMessage(build), shards)
	got, gotStats, _ := runRecorded(s, s.Graph(), build, shards)
	requireSameRecords(t, name, s, want, got, wantStats, gotStats)
}

// requireSameRecords fails on the first record where two recordings of
// scenario s differ, then on differing final statistics.
func requireSameRecords(t *testing.T, name string, s fuzzscen.Scenario, want, got []record, wantStats, gotStats string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: reference run observed nothing", name)
	}
	for i := range want {
		if i >= len(got) {
			t.Fatalf("%s: recording ends after %d of %d records; next expected:\n%+v", name, i, len(want), want[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: diverged at record %d of %d:\n got %+v\nwant %+v\nscenario: %s",
				name, i, len(want), got[i], want[i], s.JSON())
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, reference has %d; first extra:\n%+v", name, len(got), len(want), got[len(want)])
	}
	if gotStats != wantStats {
		t.Fatalf("%s: stats diverged\n got %s\nwant %s", name, gotStats, wantStats)
	}
}

// TestShardWaveMatchesPerMessageReference is the wave's exactness claim
// as a test: for every protocol, loss setting, flood scope and shard
// count, a run whose sends ride one event per hop-ring shows the world
// exactly what a run whose sends ride one event per recipient shows —
// every trace event, every observer call with its message, every
// outcome, in the same order — and ends on the same statistics.
func TestShardWaveMatchesPerMessageReference(t *testing.T) {
	const seeds = 6
	perCell := 2
	if testing.Short() {
		perCell = 1
	}
	cell := 0
	for _, shards := range []int{1, 2, 4} {
		for _, p := range equivProtocols() {
			for _, loss := range []float64{0, 0.2, 1} {
				for _, radius := range []int{0, 2} {
					// Seeds rotate so every protocol meets every scenario.
					cell++
					for k := 0; k < perCell; k++ {
						seed := int64(1 + (cell+k*seeds/2)%seeds)
						s := equivScenario(seed, loss, radius)
						build := p.build(&s)
						requireSameRun(t, fmt.Sprintf("shards=%d/%s/loss=%v/radius=%d/seed=%d",
							shards, p.name, loss, radius, seed), s, build, shards)
					}
				}
			}
		}
	}
}

// TestWaveMatchesPerMessageAtZeroHopDelay covers the one configuration
// where hop-rings stop being distinct instants: with HopDelay 0 every
// copy of a flood lands now, so the whole flood is one ring and must
// deliver in plain send order. (Single-shard only — sharding needs
// positive lookahead.)
func TestWaveMatchesPerMessageAtZeroHopDelay(t *testing.T) {
	for _, p := range equivProtocols() {
		s := equivScenario(3, 0.1, 0)
		s.HopDelay = 0
		requireSameRun(t, p.name+"/hop=0", s, p.build(&s), 1)
	}
}
