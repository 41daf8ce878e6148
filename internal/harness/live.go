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
// on the sim.Time axis, and the scenario's attacks applied to a
// liveTarget, as timed commands on the cluster.
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
	tg := newLiveTarget(c, fn, s.LossProb, hooks)
	for _, a := range s.Attacks() {
		a.Apply(tg)
	}
	return &liveInstance{c: c, s: s, g: s.Graph(), onProgress: onProgress, target: tg}, nil
}

type liveInstance struct {
	c          *agile.Cluster
	s          fuzzscen.Scenario
	g          *topology.Graph
	onProgress func(Progress)
	target     *liveTarget
	canceled   bool
}

// World implements Instance.
func (i *liveInstance) World() check.World { return liveWorld{c: i.c} }

// Run implements Instance: the fault schedule (applied at Start) and
// the progress probe are timed commands on the cluster, so they
// interleave with the workload drive exactly as the simulator's attack
// events interleave with its arrivals. Events is 0: the live runtime
// has no event counter.
func (i *liveInstance) Run(ctx context.Context) metrics.RunStats {
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

// liveTarget is the attack package's Target over a live cluster on
// either driver: actions are timed commands (Cluster.At), which never
// overlap; kills, revives and injections go to the host, which traces
// them; and the links are every host pair, the fabric being fully
// connected. A cut is a bidirectional drop-1 rule on the pair in the
// transport's loss layer, traced as LinkCut / LinkRestore, and a
// restore returns the pair to the scenario's loss.
type liveTarget struct {
	c    *agile.Cluster
	fn   *transport.FaultNetwork
	loss float64        // drop probability a restored link returns to
	rec  trace.Recorder // traces cuts; nil when nothing watches the run
	cut  map[[2]topology.NodeID]bool
}

func newLiveTarget(c *agile.Cluster, fn *transport.FaultNetwork, loss float64, rec trace.Recorder) *liveTarget {
	return &liveTarget{c: c, fn: fn, loss: loss, rec: rec, cut: map[[2]topology.NodeID]bool{}}
}

// At implements attack.Target.
func (t *liveTarget) At(at sim.Time, fn func(now sim.Time)) {
	t.c.At(float64(at), func() { fn(sim.Time(t.c.Now())) })
}

// Kill implements attack.Target.
func (t *liveTarget) Kill(id topology.NodeID) { t.c.Host(int(id)).Kill() }

// Revive implements attack.Target.
func (t *liveTarget) Revive(id topology.NodeID) { t.c.Host(int(id)).Revive() }

// Inject implements attack.Target.
func (t *liveTarget) Inject(_ sim.Time, id topology.NodeID, size float64) float64 {
	return t.c.Host(int(id)).Inject(size)
}

// CutLink implements attack.Target.
func (t *liveTarget) CutLink(a, b topology.NodeID) bool { return t.setCut(a, b, true) }

// RestoreLink implements attack.Target.
func (t *liveTarget) RestoreLink(a, b topology.NodeID) bool { return t.setCut(a, b, false) }

// LinkList implements attack.Target: every host pair not cut.
func (t *liveTarget) LinkList() [][2]topology.NodeID {
	var out [][2]topology.NodeID
	for a, n := topology.NodeID(0), topology.NodeID(t.c.N()); a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !t.cut[[2]topology.NodeID{a, b}] {
				out = append(out, [2]topology.NodeID{a, b})
			}
		}
	}
	return out
}

// setCut cuts (or restores) the pair a–b unless it already is, and
// reports whether it changed anything.
func (t *liveTarget) setCut(a, b topology.NodeID, cut bool) bool {
	key := [2]topology.NodeID{min(a, b), max(a, b)}
	if t.cut[key] == cut {
		return false
	}
	t.cut[key] = cut
	drop, kind := t.loss, trace.LinkRestore
	if cut {
		drop, kind = 1, trace.LinkCut
	}
	t.fn.SetDrop(int(a), int(b), drop)
	t.fn.SetDrop(int(b), int(a), drop)
	if t.rec != nil {
		t.rec.Record(trace.Event{At: sim.Time(t.c.Now()), Kind: kind, Node: a, Peer: b})
	}
	return true
}
