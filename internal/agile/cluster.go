package agile

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"realtor/internal/agile/naming"
	"realtor/internal/agile/sched"
	"realtor/internal/agile/transport"
	"realtor/internal/core"
	"realtor/internal/metrics"
	"realtor/internal/place"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// Config describes a live cluster. The Figure 9 defaults are 20 hosts and
// a 50-second queue.
type Config struct {
	Hosts         int
	QueueCapacity float64
	Protocol      protocol.Config

	// TimeScale is scaled seconds per second of the cluster clock, a
	// time.Duration. Over UDP the clock is the wall clock: at 200 the
	// paper's 300-second measurement takes 1.5 s. Over the in-process
	// fabric it is virtual, and the scale sets only its grain.
	TimeScale float64

	// NegotiationTimeout bounds how long a host waits for an admission
	// response before the try times out, in scaled seconds.
	NegotiationTimeout float64

	// Discovery optionally overrides the discovery protocol (default:
	// REALTOR). Any Discovery implementation runs unmodified on the live
	// runtime, so the simulator's baselines can be measured here too.
	Discovery func() protocol.Discovery

	// SchedPolicy selects the hosts' run-queue dispatch order: EDF (the
	// paper's job scheduler, the default) or FIFO (the ablation
	// baseline).
	SchedPolicy sched.Policy

	// MaxTries bounds how many candidates a migration walks through on
	// denial — Section 3: "migration is aborted and the next node in
	// REALTOR's list is tried". 0 means 1 (the Figure 9 measurement uses
	// the simulation's one-try setting).
	MaxTries int

	// DeadlineSlack, in scaled seconds, gives every driven component a
	// deadline of arrival + U × DeadlineSlack, with U uniform in
	// [0.25, 1.75] — mixed urgency classes, without which EDF degenerates
	// to FIFO (constant slack makes deadline order equal arrival order).
	// 0 means no deadlines.
	DeadlineSlack float64

	// Trace optionally receives the same event vocabulary the simulator
	// emits (arrivals, admissions, migrations, crossings, node churn).
	// On the wall-clock driver events fire concurrently from every
	// host's goroutine, so the recorder must serialize internally
	// (trace.JSONL does).
	Trace trace.Recorder

	// OnOutcome, when set, is called once per submitted component with
	// its final fate and its Arrive — for a driven task, the
	// task's Arrive on the drive's clock, which starts when Drive is
	// called — the live counterpart of engine.Config.OnOutcome. Like
	// Trace it may fire concurrently on the wall-clock driver.
	OnOutcome func(arrive float64, admitted bool)

	// Observer optionally receives every protocol message at its
	// send/deliver/drop points plus queue injections — the same
	// full-payload surface as engine.Config.Observer. Callbacks fire in
	// the emitting host's step, and may read that host's (and only that
	// host's) step-confined state; on the wall-clock driver they must
	// serialize internally.
	Observer trace.MessageObserver
}

// DefaultConfig returns the Figure 9 setup.
func DefaultConfig() Config {
	return Config{
		Hosts:              20,
		QueueCapacity:      50,
		Protocol:           protocol.DefaultConfig(),
		TimeScale:          200,
		NegotiationTimeout: 50, // a quarter second of the clock at 200×
	}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	switch {
	case c.Hosts <= 1:
		return fmt.Errorf("agile: need at least 2 hosts")
	case c.QueueCapacity <= 0:
		return fmt.Errorf("agile: queue capacity must be positive")
	case c.TimeScale <= 0:
		return fmt.Errorf("agile: time scale must be positive")
	case c.NegotiationTimeout <= 0:
		return fmt.Errorf("agile: negotiation timeout must be positive")
	}
	return c.Protocol.Validate()
}

// Cluster is a running set of hosts on a shared transport.
type Cluster struct {
	cfg    Config
	net    transport.Network
	naming *naming.Service
	hosts  []*Host
	drv    driver

	// Protocol-message counters, mirroring the simulator's accounting:
	// floods count once per flood, unicasts once per message.
	helpMsgs    atomic.Uint64
	pledgeMsgs  atomic.Uint64
	advertMsgs  atomic.Uint64
	controlMsgs atomic.Uint64
}

// NewCluster builds and starts a cluster on the given network. The
// network must have exactly cfg.Hosts endpoints. On a network that
// delivers inline (transport.Local) the cluster runs only inside Drive,
// Advance and the calls that wait on a host, on the one goroutine that
// uses it; on UDP it runs a goroutine per host on the wall clock.
func NewCluster(cfg Config, net transport.Network) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net.N() != cfg.Hosts {
		return nil, fmt.Errorf("agile: network has %d endpoints, config wants %d", net.N(), cfg.Hosts)
	}
	c := &Cluster{cfg: cfg, net: net, naming: naming.New()}
	c.drv = newDriver(c)
	for i := 0; i < cfg.Hosts; i++ {
		c.hosts = append(c.hosts, newHost(i, c))
	}
	if w, ok := c.drv.(*wallDriver); ok {
		w.start()
	}
	return c, nil
}

// newDiscovery builds a host's protocol instance (at start and on
// revival).
func (c *Cluster) newDiscovery() protocol.Discovery {
	if c.cfg.Discovery != nil {
		return c.cfg.Discovery()
	}
	return core.New(c.cfg.Protocol)
}

// scaled converts a reading of the cluster clock to scaled seconds.
func (c *Cluster) scaled(d time.Duration) float64 { return d.Seconds() * c.cfg.TimeScale }

// toClock converts scaled seconds to a span of the cluster clock,
// truncated to the nanosecond.
func (c *Cluster) toClock(scaled float64) time.Duration {
	return time.Duration(scaled / c.cfg.TimeScale * float64(time.Second))
}

// Now returns the scaled cluster clock in seconds — the live
// counterpart of the simulator's sim.Time axis.
func (c *Cluster) Now() float64 { return c.scaled(c.drv.clock()) }

// At runs fn at scaled instant t (at once if t is past), off any host:
// a timed command such as a fault schedule's kill or cut. On UDP it
// runs on a timer goroutine, and Stop cancels what has not fired.
func (c *Cluster) At(t float64, fn func()) { c.drv.at(c.toClock(t-c.Now()), fn) }

// Advance lets d scaled seconds of cluster time pass.
func (c *Cluster) Advance(d float64) { c.drv.sleep(context.Background(), c.toClock(d)) }

// emit records one trace event if a recorder is configured.
func (c *Cluster) emit(ev trace.Event) {
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(ev)
	}
}

// N returns the number of hosts.
func (c *Cluster) N() int { return len(c.hosts) }

// Host returns host id.
func (c *Cluster) Host(id int) *Host { return c.hosts[id] }

// Stop shuts down all hosts and the transport. A second Stop is a no-op.
func (c *Cluster) Stop() {
	c.drv.stop()
	c.net.Close()
}

// DeadlineStats summarizes completion timeliness across the cluster.
type DeadlineStats struct {
	Completed   uint64
	Missed      uint64
	LatenessSum float64 // total positive lateness, scaled seconds
	LatenessMax float64 // worst single lateness, scaled seconds
}

// MissRate returns Missed/Completed (0 when nothing completed).
func (d DeadlineStats) MissRate() float64 {
	if d.Completed == 0 {
		return 0
	}
	return float64(d.Missed) / float64(d.Completed)
}

// MeanLateness returns average positive lateness per completed component.
func (d DeadlineStats) MeanLateness() float64 {
	if d.Completed == 0 {
		return 0
	}
	return d.LatenessSum / float64(d.Completed)
}

// Deadlines aggregates the hosts' deadline counters.
func (c *Cluster) Deadlines() DeadlineStats {
	var d DeadlineStats
	for _, h := range c.hosts {
		d.Completed += h.Stats.Completed.Load()
		d.Missed += h.Stats.DeadlineMiss.Load()
		d.LatenessSum += h.Stats.LatenessSum.Load()
		if m := h.Stats.LatenessMax.Load(); m > d.LatenessMax {
			d.LatenessMax = m
		}
	}
	return d
}

// RunStats aggregates host counters into the shared metrics record.
func (c *Cluster) RunStats() metrics.RunStats {
	var st metrics.RunStats
	for _, h := range c.hosts {
		st.Offered += h.Stats.Offered.Load()
		st.Migrated += h.Stats.Migrated.Load()
		st.MigrateFail += h.Stats.MigrateFail.Load()
		st.Rejected += h.Stats.Rejected.Load()
	}
	// Admission is counted from the submitter's perspective: offered
	// minus everything the placement machines rejected.
	if st.Offered >= st.Rejected {
		st.Admitted = st.Offered - st.Rejected
	}
	st.HelpMsgs = c.helpMsgs.Load()
	st.PledgeMsgs = c.pledgeMsgs.Load()
	st.AdvertMsgs = c.advertMsgs.Load()
	st.ControlMsgs = c.controlMsgs.Load()
	return st
}

// countFlood/countUnicast mirror the simulator's message accounting.
func (c *Cluster) countFlood(k protocol.Kind) {
	switch k {
	case protocol.Help:
		c.helpMsgs.Add(1)
	case protocol.Advert:
		c.advertMsgs.Add(1)
	case protocol.Pledge:
		c.pledgeMsgs.Add(1)
	}
}

func (c *Cluster) countUnicast(k protocol.Kind) {
	switch k {
	case protocol.Pledge, protocol.DHTFound:
		c.pledgeMsgs.Add(1)
	case protocol.Help, protocol.Relay, protocol.DHTGet:
		c.helpMsgs.Add(1)
	case protocol.Advert, protocol.DHTPut:
		c.advertMsgs.Add(1)
	}
}

// settle lets the cluster run long enough for queued commands,
// in-flight negotiations (including MaxTries retry chains) and their
// timeouts to resolve, plus 50 ms of the clock.
func (c *Cluster) settle() {
	c.drv.sleep(context.Background(),
		time.Duration(place.Tries(c.cfg.MaxTries)+1)*c.toClock(c.cfg.NegotiationTimeout)+50*time.Millisecond)
}

// Drive replays a workload source on the live cluster: each task
// arrives at its scaled Arrive instant on its designated host, exactly
// as the simulator's engine.Run consumes the same source (the drive
// stops at the first task with Arrive ≥ duration, matching the engine's
// cutoff, so Offered counts agree run-for-run). Task Require attributes
// are ignored (the live fabric is attribute-free). With DeadlineSlack
// set, each component's deadline is its arrival plus U × DeadlineSlack,
// U drawn from [0.25, 1.75] by a generator keyed on the task ID, so the
// same source yields the same deadlines under every dispatch policy.
// It blocks until all arrivals are submitted and in-flight negotiations
// settle, then returns the aggregated stats. The cluster remains
// running.
//
// Cancellation is cooperative: the context is polled before each
// submission and interrupts the wall-clock driver's wait for the next
// arrival instant. On cancellation the drive stops submitting immediately,
// skips the settle wait (in-flight negotiations are abandoned, not
// resolved), and reports canceled=true with whatever stats had
// accumulated — partial numbers that must not be compared against a
// completed run.
func (c *Cluster) Drive(ctx context.Context, src workload.Source, duration float64) (st metrics.RunStats, canceled bool) {
	if duration <= 0 {
		panic("agile: drive duration must be positive")
	}
	start := c.Now()
	for {
		if ctx.Err() != nil {
			return c.RunStats(), true
		}
		t, ok := src.Next()
		if !ok || float64(t.Arrive) >= duration {
			break
		}
		if delta := start + float64(t.Arrive) - c.Now(); delta > 0 && !c.drv.sleep(ctx, c.toClock(delta)) {
			return c.RunStats(), true
		}
		// Task IDs are shifted by one so a source emitting ID 0 cannot
		// collide with "unregistered" sentinels anywhere downstream.
		comp := place.Task{Task: t}
		comp.ID++
		if c.cfg.DeadlineSlack > 0 {
			u := rng.SeedLight(t.ID, deadlineSeed)
			comp.Deadline = start + float64(t.Arrive) + (0.25+1.5*u.Float64())*c.cfg.DeadlineSlack
		}
		c.hosts[int(t.Node)].Submit(comp)
	}
	c.settle()
	return c.RunStats(), false
}

// deadlineSeed salts the per-task deadline draw.
const deadlineSeed = 0xd3ad1e
