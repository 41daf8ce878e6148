package harness

import (
	"context"
	"fmt"

	"realtor/internal/agile"
	"realtor/internal/agile/transport"
	"realtor/internal/check"
	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
	"realtor/internal/metrics"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// liveNegotiationTimeout is how long a live host waits for an admission
// answer, in scaled seconds. On the deterministic driver an answer lands
// at the instant it was sent, so only a lost packet waits this long.
const liveNegotiationTimeout = 2.5

// liveBackend runs scenarios on the Agile cluster on the deterministic
// driver: real protocol messages on the in-process fabric, virtual time
// on the sim.Time axis, and the scenario's kill/cut/flap/exhaust/churn
// schedule executed as timed commands on the cluster.
type liveBackend struct{}

// Live returns the live-cluster backend.
func Live() Backend { return liveBackend{} }

// Name implements Backend.
func (liveBackend) Name() string { return "live" }

// Start implements Backend. Nothing runs before Run: the hosts' first
// timers are armed, but the deterministic driver fires them only inside
// the drive, so the caller binds the oracle in between.
func (liveBackend) Start(s fuzzscen.Scenario, build engine.Builder, hooks *Hooks, onProgress func(Progress)) (Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Nodes()
	if n < 2 {
		return nil, fmt.Errorf("harness: live backend needs ≥ 2 nodes, scenario has %d", n)
	}
	if len(s.Capacities) > 0 {
		return nil, fmt.Errorf("harness: live backend does not support per-node capacities (hosts share one QueueCapacity)")
	}
	// The in-process fabric, wrapped in a FaultNetwork so the fault
	// schedule can cut pairs and LossProb can drop packets.
	// The simulator's LossProb drops only protocol messages; a real
	// lossy fabric loses admission traffic too — the live backend models
	// the fabric (negotiation timeouts then reject the task, conserving
	// outcomes).
	fn := transport.NewFault(transport.NewLocal(n), s.EngineSeed)
	fn.SetDefaultDrop(s.LossProb)
	ccfg := agile.DefaultConfig()
	ccfg.Hosts = n
	ccfg.QueueCapacity = s.QueueCapacity
	ccfg.Protocol = s.ProtocolConfig()
	ccfg.NegotiationTimeout = liveNegotiationTimeout
	ccfg.MaxTries = s.MaxTries
	ccfg.Discovery = build
	ccfg.Trace = hooks
	ccfg.Observer = hooks
	c, err := agile.NewCluster(ccfg, fn)
	if err != nil {
		fn.Close()
		return nil, err
	}
	return &liveInstance{
		c:          c,
		s:          s,
		g:          s.Graph(),
		onProgress: onProgress,
		faults:     liveFaults{c: c, fn: fn, loss: s.LossProb, hooks: hooks},
	}, nil
}

type liveInstance struct {
	c          *agile.Cluster
	s          fuzzscen.Scenario
	g          *topology.Graph
	onProgress func(Progress)
	faults     liveFaults
	canceled   bool
}

// World implements Instance.
func (i *liveInstance) World() check.World { return liveWorld{c: i.c} }

// Run implements Instance: the fault schedule and the progress probe
// are timed commands on the cluster, so they interleave with the
// workload drive exactly as the simulator's attack events interleave
// with its arrivals. Events is 0: the live runtime has no event
// counter.
func (i *liveInstance) Run(ctx context.Context) metrics.RunStats {
	i.faults.schedule(i.s.Events)
	if i.onProgress != nil {
		i.probe(i.s.Duration / 64)
	}
	st, canceled := i.c.Drive(ctx, i.s.Workload(i.g), i.s.Duration)
	i.canceled = canceled
	return st
}

// Canceled implements Instance.
func (i *liveInstance) Canceled() bool { return i.canceled }

// probe reports progress at instant t and every Duration/64 after it.
func (i *liveInstance) probe(t float64) {
	i.c.At(t, func() {
		i.onProgress(Progress{
			Now:   sim.Time(i.c.Now()),
			End:   sim.Time(i.s.Duration),
			Stats: i.c.RunStats(),
		})
		i.probe(t + i.s.Duration/64)
	})
}

// Now implements Instance.
func (i *liveInstance) Now() sim.Time { return sim.Time(i.c.Now()) }

// EachNodeSafe implements Instance: fn runs as a step of each host via
// Inspect, the only place live protocol state may be read.
func (i *liveInstance) EachNodeSafe(fn func(id topology.NodeID)) {
	for id := 0; id < i.c.N(); id++ {
		nid := topology.NodeID(id)
		i.c.Host(id).Inspect(func(*agile.Host) { fn(nid) })
	}
}

// Close implements Instance. Stop closes the fault network and its
// inner fabric, and is idempotent.
func (i *liveInstance) Close() { i.c.Stop() }

// liveWorld adapts the cluster to the oracle's World surface. Graph is
// nil: the live fabrics are fully connected (cuts are drop-1 pair
// rules, not topology), so I6 and the phantom-partition check do not
// apply.
type liveWorld struct {
	c *agile.Cluster
}

var _ check.World = liveWorld{}

// N implements check.World.
func (w liveWorld) N() int { return w.c.N() }

// Alive implements check.World (step confined, per the World contract).
func (w liveWorld) Alive(id topology.NodeID) bool { return w.c.Host(int(id)).Alive() }

// Usage implements check.World.
func (w liveWorld) Usage(id topology.NodeID, now sim.Time) float64 {
	return w.c.Host(int(id)).Usage()
}

// Headroom implements check.World.
func (w liveWorld) Headroom(id topology.NodeID, now sim.Time) float64 {
	return w.c.Host(int(id)).Headroom()
}

// Capacity implements check.World.
func (w liveWorld) Capacity(id topology.NodeID) float64 { return w.c.Host(int(id)).Capacity() }

// Discovery implements check.World.
func (w liveWorld) Discovery(id topology.NodeID) protocol.Discovery {
	return w.c.Host(int(id)).Discovery()
}

// Graph implements check.World.
func (w liveWorld) Graph() *topology.Graph { return nil }

// liveFaults executes a fuzzscen fault schedule against a live cluster:
// the same kill/cut/flap/exhaust/churn vocabulary the simulator's
// attack package compiles, each action a timed command on the cluster
// (Cluster.At), so it runs on either driver. Kills and revives go
// through Host.Kill/Revive (which emit the NodeKill / NodeRevive trace
// events themselves); cuts become bidirectional drop-1 pair
// probabilities on the transport's loss layer, traced as
// LinkCut/LinkRestore; exhaustion goes through Host.Inject.
type liveFaults struct {
	c     *agile.Cluster
	fn    *transport.FaultNetwork
	loss  float64 // drop probability restored when a cut heals
	hooks *Hooks  // traces cuts; nil when no oracle watches the run
}

// schedule puts every event's actions on the cluster. Within one event
// an action never precedes the one before it: an action due before its
// predecessor (a churn heal longer than the churn interval) waits for
// it, as a sequential runner would.
func (f liveFaults) schedule(evs []fuzzscen.Event) {
	for _, ev := range evs {
		prev := 0.0
		at := func(t float64, fn func()) {
			prev = max(prev, t)
			f.c.At(prev, fn)
		}
		switch ev.Op {
		case "kill":
			h := f.c.Host(ev.Node)
			at(ev.At, h.Kill)
			if ev.Until > ev.At {
				at(ev.Until, h.Revive)
			}

		case "flap":
			h := f.c.Host(ev.Node)
			for t := ev.At; t < ev.Until; t += ev.Down + ev.Up {
				at(t, h.Kill)
				at(t+ev.Down, h.Revive)
			}

		case "cut":
			a, b := ev.A, ev.B
			at(ev.At, func() { f.setCut(a, b, true) })
			if ev.Until > ev.At {
				at(ev.Until, func() { f.setCut(a, b, false) })
			}

		case "exhaust":
			h, chunk := f.c.Host(ev.Node), ev.Chunk
			for t := ev.At; t < ev.Until; t += ev.Interval {
				at(t, func() { h.Inject(chunk) })
			}

		case "churn":
			// The simulator's churn cuts a random live link; the live fabric
			// has no links, so the analog is a random host pair.
			r := rng.New(ev.Seed).Derive("live-churn")
			n := f.c.N()
			for t := ev.At; t < ev.Until; t += ev.Interval {
				a := r.Intn(n)
				b := r.Intn(n - 1)
				if b >= a {
					b++
				}
				at(t, func() { f.setCut(a, b, true) })
				at(t+ev.Down, func() { f.setCut(a, b, false) })
			}
		}
	}
}

// setCut installs (or heals, back to the scenario's loss) a
// bidirectional full drop for a pair and traces the topology change
// with the simulator's vocabulary.
func (f liveFaults) setCut(a, b int, cut bool) {
	drop := f.loss
	kind := trace.LinkRestore
	if cut {
		drop = 1
		kind = trace.LinkCut
	}
	f.fn.SetDrop(a, b, drop)
	f.fn.SetDrop(b, a, drop)
	if f.hooks == nil {
		return
	}
	f.hooks.Record(trace.Event{At: sim.Time(f.c.Now()), Kind: kind,
		Node: topology.NodeID(a), Peer: topology.NodeID(b)})
}
