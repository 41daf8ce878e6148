package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

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

// LiveConfig tunes the live Agile-cluster backend.
type LiveConfig struct {
	// TimeScale is scaled seconds per wall second (default 50): a
	// 30-scaled-second scenario then takes 0.6 wall seconds.
	TimeScale float64

	// Transport names the fabric via transport.ByName ("chan" default;
	// "udp", "tcp"). It is always wrapped in a FaultNetwork so the fault
	// schedule can cut pairs and LossProb can drop packets.
	Transport string

	// Slack overrides the oracle clock tolerance in scaled seconds;
	// 0 means the default 0.02×TimeScale (20 wall-milliseconds of drift
	// between a protocol decision's clock read and the observer's).
	Slack sim.Time
}

// liveBackend runs scenarios on the goroutine-per-host Agile cluster:
// real messages on a real transport, wall clock scaled onto the
// sim.Time axis, and the scenario's kill/cut/flap/exhaust/churn
// schedule executed by wall-clock timers against live hosts.
type liveBackend struct {
	cfg LiveConfig
}

// Live returns the live-cluster backend.
func Live(cfg LiveConfig) Backend {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 50
	}
	if cfg.Transport == "" {
		cfg.Transport = "chan"
	}
	if cfg.Slack <= 0 {
		cfg.Slack = sim.Time(0.02 * cfg.TimeScale)
	}
	return liveBackend{cfg: cfg}
}

// Name implements Backend.
func (liveBackend) Name() string { return "live" }

// Slack implements Backend: wall time is not exact, so timing-sensitive
// invariants (I1, I3, timestamp checks in I2/I4) widen by this much.
func (b liveBackend) Slack() sim.Time { return b.cfg.Slack }

// Start implements Backend.
func (b liveBackend) Start(s fuzzscen.Scenario, build engine.Builder, hooks *Hooks, probe Probe) (Instance, error) {
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
	mkNet, err := transport.ByName(b.cfg.Transport)
	if err != nil {
		return nil, err
	}
	inner, err := mkNet(n)
	if err != nil {
		return nil, err
	}
	fn := transport.NewFault(inner, s.EngineSeed)
	base := transport.FaultRule{Drop: s.LossProb}
	if s.LossProb > 0 {
		// The simulator's LossProb drops only protocol messages; a real
		// lossy fabric loses admission traffic too — the live backend
		// models the fabric (negotiation timeouts then reject the task,
		// conserving outcomes).
		fn.SetDefaultRule(base)
	}
	ccfg := agile.DefaultConfig()
	ccfg.Hosts = n
	ccfg.QueueCapacity = s.QueueCapacity
	ccfg.Protocol = s.ProtocolConfig()
	ccfg.TimeScale = b.cfg.TimeScale
	ccfg.NegotiationTimeout = 50 * time.Millisecond
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
		c:      c,
		s:      s,
		g:      s.Graph(),
		probe:  probe,
		faults: newLiveFaults(c, fn, base, hooks, s.Events),
	}, nil
}

type liveInstance struct {
	c        *agile.Cluster
	s        fuzzscen.Scenario
	g        *topology.Graph
	probe    Probe
	faults   *liveFaults
	canceled bool

	closeOnce sync.Once
}

// World implements Instance.
func (i *liveInstance) World() check.World { return liveWorld{c: i.c} }

// Run implements Instance: the fault schedule runs on wall-clock timers
// concurrently with the workload drive, exactly as the simulator's
// attack scenarios run concurrently with its arrival events. Progress —
// when probed — ticks on its own goroutine (the live backend is
// wall-clock anyway, so snapshots need no quiescent barrier; RunStats
// aggregates under the hosts' own synchronization). Events is 0: the
// live runtime has no event counter.
func (i *liveInstance) Run(ctx context.Context) metrics.RunStats {
	stopProbe := i.startProbe()
	i.faults.start()
	st, canceled := i.c.DriveSourceCtx(ctx, i.s.Workload(i.g), i.s.Duration)
	i.canceled = canceled
	i.faults.stop()
	stopProbe()
	return st
}

// Canceled implements Instance.
func (i *liveInstance) Canceled() bool { return i.canceled }

// startProbe launches the progress ticker (a no-op without a probe) and
// returns its stop function.
func (i *liveInstance) startProbe() func() {
	if i.probe.OnProgress == nil {
		return func() {}
	}
	every := i.probe.Every
	if every <= 0 {
		every = sim.Time(i.s.Duration) / 64
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(i.c.ToWall(float64(every)))
		defer t.Stop()
		for {
			select {
			case <-t.C:
				i.probe.OnProgress(Progress{
					Now:   sim.Time(i.c.Now()),
					End:   sim.Time(i.s.Duration),
					Stats: i.c.RunStats(),
				})
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// Now implements Instance.
func (i *liveInstance) Now() sim.Time { return sim.Time(i.c.Now()) }

// EachNodeSafe implements Instance: fn runs on each host's actor loop
// via Inspect, the only place live protocol state may be read.
func (i *liveInstance) EachNodeSafe(fn func(id topology.NodeID)) {
	for id := 0; id < i.c.N(); id++ {
		nid := topology.NodeID(id)
		i.c.Host(id).Inspect(func(*agile.Host) { fn(nid) })
	}
}

// Close implements Instance.
func (i *liveInstance) Close() {
	i.closeOnce.Do(func() {
		i.faults.stop()
		i.c.Stop() // also closes the fault network and its inner fabric
	})
}

// liveWorld adapts the cluster to the oracle's World surface. Graph is
// nil: the live fabrics are fully connected (cuts are chaos rules, not
// topology), so I6 and the phantom-partition check do not apply.
type liveWorld struct {
	c *agile.Cluster
}

var _ check.World = liveWorld{}

// N implements check.World.
func (w liveWorld) N() int { return w.c.N() }

// Alive implements check.World (actor-confined, per the World contract).
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
// attack package compiles, mapped onto wall-clock timers. Kills and
// revives go through Host.Kill/Revive (which emit the NodeKill /
// NodeRevive trace events themselves); cuts become bidirectional
// full-drop fault rules on the transport's chaos layer, traced as
// LinkCut/LinkRestore; exhaustion goes through Host.Inject.
type liveFaults struct {
	c     *agile.Cluster
	fn    *transport.FaultNetwork
	base  transport.FaultRule // rule restored when a cut heals
	hooks *Hooks
	evs   []fuzzscen.Event

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newLiveFaults(c *agile.Cluster, fn *transport.FaultNetwork, base transport.FaultRule,
	hooks *Hooks, evs []fuzzscen.Event) *liveFaults {
	return &liveFaults{c: c, fn: fn, base: base, hooks: hooks, evs: evs, stopCh: make(chan struct{})}
}

func (f *liveFaults) start() {
	for _, ev := range f.evs {
		ev := ev
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.run(ev)
		}()
	}
}

// stop cancels pending fault actions and waits for the runners.
func (f *liveFaults) stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.wg.Wait()
}

// sleepUntil blocks until the cluster clock reaches the scaled instant;
// false means the schedule was stopped first.
func (f *liveFaults) sleepUntil(scaled float64) bool {
	delta := scaled - f.c.Now()
	if delta <= 0 {
		select {
		case <-f.stopCh:
			return false
		default:
			return true
		}
	}
	select {
	case <-time.After(f.c.ToWall(delta)):
		return true
	case <-f.stopCh:
		return false
	}
}

func (f *liveFaults) run(ev fuzzscen.Event) {
	switch ev.Op {
	case "kill":
		if !f.sleepUntil(ev.At) {
			return
		}
		f.c.Host(ev.Node).Kill()
		if ev.Until > ev.At {
			if !f.sleepUntil(ev.Until) {
				return
			}
			f.c.Host(ev.Node).Revive()
		}

	case "flap":
		for t := ev.At; t < ev.Until; t += ev.Down + ev.Up {
			if !f.sleepUntil(t) {
				return
			}
			f.c.Host(ev.Node).Kill()
			if !f.sleepUntil(t + ev.Down) {
				return
			}
			f.c.Host(ev.Node).Revive()
		}

	case "cut":
		if !f.sleepUntil(ev.At) {
			return
		}
		f.setCut(ev.A, ev.B, true)
		if ev.Until > ev.At {
			if !f.sleepUntil(ev.Until) {
				return
			}
			f.setCut(ev.A, ev.B, false)
		}

	case "exhaust":
		for t := ev.At; t < ev.Until; t += ev.Interval {
			if !f.sleepUntil(t) {
				return
			}
			f.c.Host(ev.Node).Inject(ev.Chunk)
		}

	case "churn":
		// The simulator's churn cuts a random live link; the live fabric
		// has no links, so the analog is a random host pair.
		r := rng.New(ev.Seed).Derive("live-churn")
		n := f.c.N()
		for t := ev.At; t < ev.Until; t += ev.Interval {
			if !f.sleepUntil(t) {
				return
			}
			a := r.Intn(n)
			b := r.Intn(n - 1)
			if b >= a {
				b++
			}
			f.setCut(a, b, true)
			heal := t + ev.Down
			if !f.sleepUntil(heal) {
				return
			}
			f.setCut(a, b, false)
		}
	}
}

// setCut installs (or heals) a bidirectional full-drop rule for a pair
// and traces the topology change with the simulator's vocabulary.
func (f *liveFaults) setCut(a, b int, cut bool) {
	rule := f.base
	kind := trace.LinkRestore
	if cut {
		rule = transport.FaultRule{Drop: 1}
		kind = trace.LinkCut
	}
	f.fn.SetRule(a, b, rule)
	f.fn.SetRule(b, a, rule)
	f.hooks.Record(trace.Event{At: sim.Time(f.c.Now()), Kind: kind,
		Node: topology.NodeID(a), Peer: topology.NodeID(b)})
}
