package engine

import (
	"fmt"
	"reflect"
	"testing"

	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// probe is a scripted protocol for the wave tests: it logs every
// delivery into a log shared by all nodes and lets one node arm a
// zero-delay timer from inside its Deliver.
type probe struct {
	protocoltest.Inert
	env   protocol.Env
	log   *[]string
	timer topology.NodeID // the node whose Deliver arms After(0)
}

func (p *probe) Attach(env protocol.Env) { p.env = env }

func (p *probe) Deliver(protocol.Message) {
	id := p.env.Self()
	*p.log = append(*p.log, fmt.Sprintf("deliver@%d", id))
	if id == p.timer {
		p.env.After(0, func() { *p.log = append(*p.log, fmt.Sprintf("timer@%d", id)) })
	}
}

// floodFrom12 floods once from the centre of the 5×5 mesh, through the
// engine's own send path or — with wrap = PerMessage — the reference,
// and returns the probe log after everything has landed.
func floodFrom12(wrap func(Builder) Builder, timer topology.NodeID) []string {
	var log []string
	probes := map[topology.NodeID]*probe{}
	e := New(testEngineConfig(), wrap(func() protocol.Discovery {
		p := &probe{log: &log, timer: timer}
		probes[topology.NodeID(len(probes))] = p // New attaches in node order
		return p
	}))
	probes[12].env.Flood(protocol.Message{Kind: protocol.Help, From: 12})
	e.Scheduler().RunUntil(1)
	return log
}

func same(b Builder) Builder { return b }

// A handler that schedules a same-instant event ranking before the next
// ring member — node 11's zero-delay timer, namespace 11 < sender 12 —
// must see it fire before the wave moves on, exactly as a queue of
// per-message events would; one ranking after the ring (node 13's) waits
// for the ring to finish. (Ring 1 of node 12 is {7, 11, 13, 17}; node 2
// opens ring 2.)
func TestWaveYieldsToSameInstantLowerKey(t *testing.T) {
	cases := []struct {
		timer topology.NodeID
		want  []string
	}{
		{11, []string{"deliver@7", "deliver@11", "timer@11", "deliver@13", "deliver@17", "deliver@2"}},
		{13, []string{"deliver@7", "deliver@11", "deliver@13", "deliver@17", "timer@13", "deliver@2"}},
	}
	for _, tc := range cases {
		got := floodFrom12(same, tc.timer)
		ref := floodFrom12(PerMessage, tc.timer)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("timer on %d: wave order differs from per-message order\n got %v\nwant %v", tc.timer, got, ref)
		}
		if len(got) != 25 || !reflect.DeepEqual(got[:len(tc.want)], tc.want) {
			t.Fatalf("timer on %d: order %v, want prefix %v", tc.timer, got, tc.want)
		}
	}
}

// A recipient that is killed and revived while its copy is in flight is
// a different incarnation when the ring lands: it gets exactly one
// DropDead and no delivery, and the rest of its ring is unaffected.
func TestWaveDropsOnlyTheRestartedRecipient(t *testing.T) {
	cfg := testEngineConfig()
	obs := &seqRecorder{}
	cfg.Observer = obs
	e := New(cfg, func() protocol.Discovery { return protocoltest.Inert{} })
	s := e.Scheduler()
	s.At(0.004, func(sim.Time) { e.Kill(7) })
	s.At(0.006, func(sim.Time) { e.Revive(7) })
	e.envs[12].Flood(protocol.Message{Kind: protocol.Help, From: 12})
	s.RunUntil(1)
	delivered := map[topology.NodeID]int{}
	var drops []msgRec
	for _, r := range obs.msgs {
		switch r.kind {
		case "deliver":
			delivered[r.to]++
		case "drop":
			drops = append(drops, r)
		}
	}
	if len(drops) != 1 || drops[0].to != 7 || drops[0].reason != trace.DropDead {
		t.Fatalf("drops %+v, want exactly one DropDead at node 7", drops)
	}
	if delivered[7] != 0 {
		t.Fatalf("node 7's new incarnation received a message sent to its old one")
	}
	for _, mate := range []topology.NodeID{11, 13, 17} {
		if delivered[mate] != 1 {
			t.Fatalf("ring-mate %d delivered %d times, want 1", mate, delivered[mate])
		}
	}
	if got := e.MessagesDelivered(); got != 23 {
		t.Fatalf("MessagesDelivered = %d, want 23 (24 recipients, one dropped)", got)
	}
}

// A send none of whose copies survives the send side — every one lost,
// or every recipient partitioned away — puts nothing on the queue and
// leaves the sender's sequence counter where it was.
func TestWaveWithNoSurvivorsSchedulesNothing(t *testing.T) {
	inert := func() protocol.Discovery { return protocoltest.Inert{} }
	check := func(name string, e *Engine, from topology.NodeID) {
		t.Helper()
		before, seq := e.KernelStats(), e.nodeSeq[from]
		e.envs[from].Flood(protocol.Message{Kind: protocol.Help, From: from})
		e.envs[from].Unicast((from+1)%25, protocol.Message{Kind: protocol.Pledge, From: from})
		if after := e.KernelStats(); after.Scheduled != before.Scheduled || after.Pending != before.Pending {
			t.Fatalf("%s: scheduled %d→%d, pending %d→%d; want no change", name,
				before.Scheduled, after.Scheduled, before.Pending, after.Pending)
		}
		if e.nodeSeq[from] != seq {
			t.Fatalf("%s: sender consumed %d sequence numbers for copies that never left", name, e.nodeSeq[from]-seq)
		}
	}
	lossy := testEngineConfig()
	lossy.LossProb = 1
	check("total loss", New(lossy, inert), 12)

	cut := New(testEngineConfig(), inert)
	cut.CutLink(0, 1)
	cut.CutLink(0, 5)
	check("isolated corner", cut, 0)
}

// A flood rides the queue once per hop-ring: eight events from a corner
// of the 5×5 mesh (distances 1…8), four from the centre, one for a
// unicast — where the per-message scheduler took 24, 24 and 1.
func TestWaveSchedulesOneEventPerRing(t *testing.T) {
	cases := []struct {
		name string
		send func(e *Engine)
		want uint64
		msgs uint64
	}{
		{"corner flood", func(e *Engine) { e.envs[0].Flood(protocol.Message{Kind: protocol.Help}) }, 8, 24},
		{"centre flood", func(e *Engine) { e.envs[12].Flood(protocol.Message{Kind: protocol.Help, From: 12}) }, 4, 24},
		{"unicast", func(e *Engine) { e.envs[0].Unicast(24, protocol.Message{Kind: protocol.Pledge}) }, 1, 1},
	}
	for _, tc := range cases {
		e := New(testEngineConfig(), func() protocol.Discovery { return protocoltest.Inert{} })
		before := e.KernelStats()
		tc.send(e)
		e.Scheduler().RunUntil(1)
		after := e.KernelStats()
		if got := after.Scheduled - before.Scheduled; got != tc.want {
			t.Fatalf("%s: scheduled %d events, want %d", tc.name, got, tc.want)
		}
		if got := after.Fired - before.Fired; got != tc.want {
			t.Fatalf("%s: fired %d events, want %d", tc.name, got, tc.want)
		}
		if after.Pending != before.Pending {
			t.Fatalf("%s: %d events left pending", tc.name, after.Pending-before.Pending)
		}
		if got := e.MessagesDelivered(); got != tc.msgs {
			t.Fatalf("%s: delivered %d messages, want %d", tc.name, got, tc.msgs)
		}
	}
}

// In a sharded run with buffered hooks, what a delivery emits is stamped
// with that message's own canonical key, (arrival, sender, seq) — never
// with the key its wave happens to be queued under — so barrier replay
// ranks every emission as if each message were its own event.
func TestShardWaveEmissionsCarryPerMessageKeys(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Shards = 2
	cfg.Observer = &seqRecorder{} // any observer: it makes deliveries emit
	e := New(cfg, func() protocol.Discovery { return protocoltest.Inert{} })
	seq0 := e.nodeSeq[12]
	e.envs[12].Flood(protocol.Message{Kind: protocol.Help, From: 12})
	e.flushMail()
	var keys []sim.EventKey
	for _, c := range e.ctxs {
		c.emits = c.emits[:0] // the send side's OnSend records
		c.sched.RunUntil(1)
		for _, r := range c.emits {
			if r.kind != emitDeliverObs {
				t.Fatalf("unexpected emission %+v", r)
			}
			want := sim.EventKey{
				When: cfg.HopDelay * sim.Time(cfg.Graph.Dist(12, r.peer)),
				Src:  12,
				Seq:  seq0 + uint64(r.peer), // ascending-ID send order…
			}
			if r.peer > 12 {
				want.Seq-- // …which skips the sender itself
			}
			if r.key != want {
				t.Fatalf("delivery to %d stamped %+v, want %+v", r.peer, r.key, want)
			}
			keys = append(keys, r.key)
		}
	}
	if len(keys) != 24 {
		t.Fatalf("%d deliveries buffered, want 24", len(keys))
	}
}
