package agile

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"realtor/internal/agile/naming"
	"realtor/internal/agile/sched"
	"realtor/internal/agile/transport"
	"realtor/internal/metrics"
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

	// TimeScale is scaled-seconds per wall-second. At 200, the paper's
	// 300-second measurement takes 1.5 wall seconds. Message latency is
	// whatever the transport actually exhibits, so unlike the simulator
	// the live runtime has real (if small) nondeterminism — exactly what
	// Section 6 measures.
	TimeScale float64

	// NegotiationTimeout bounds how long a host waits for an admission
	// response before counting the task rejected (wall time).
	NegotiationTimeout time.Duration

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

	// DeadlineSlack sets the mean deadline slack: each driven component's
	// deadline is arrival + U × mean task size, with U drawn uniformly
	// from [0.25, 1.75] × DeadlineSlack — mixed urgency classes, without
	// which EDF degenerates to FIFO (constant slack makes deadline order
	// equal arrival order). 0 means the Drive default of 10.
	DeadlineSlack float64

	// Trace optionally receives the same event vocabulary the simulator
	// emits (arrivals, admissions, migrations, crossings, node churn).
	// Events fire concurrently from every host's actor goroutine, so the
	// recorder must serialize internally (wrap with trace.NewLocked).
	Trace trace.Recorder

	// Observer optionally receives every protocol message at its
	// send/deliver/drop points plus queue injections — the same
	// full-payload surface as engine.Config.Observer. Callbacks fire on
	// the emitting host's actor goroutine; implementations must
	// serialize internally, and may read that host's (and only that
	// host's) actor-confined state.
	Observer trace.MessageObserver
}

// DefaultConfig returns the Figure 9 setup.
func DefaultConfig() Config {
	return Config{
		Hosts:              20,
		QueueCapacity:      50,
		Protocol:           protocol.DefaultConfig(),
		TimeScale:          200,
		NegotiationTimeout: 250 * time.Millisecond,
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
	epoch  time.Time

	binMu    sync.Mutex
	binWidth float64
	bins     []TimelineBin

	// Protocol-message counters, mirroring the simulator's accounting:
	// floods count once per flood, unicasts once per message.
	helpMsgs    atomic.Uint64
	pledgeMsgs  atomic.Uint64
	advertMsgs  atomic.Uint64
	controlMsgs atomic.Uint64
}

// TimelineBin is one interval of the live admission timeline.
type TimelineBin struct {
	Start    float64 // scaled seconds
	Offered  uint64
	Admitted uint64
}

// AdmissionProbability returns Admitted/Offered (1 when idle, so quiet
// intervals plot as "no loss").
func (b TimelineBin) AdmissionProbability() float64 {
	if b.Offered == 0 {
		return 1
	}
	return float64(b.Admitted) / float64(b.Offered)
}

// EnableTimeline starts recording offered/admitted counts per width
// scaled seconds. Call before driving load.
func (c *Cluster) EnableTimeline(width float64) {
	if width <= 0 {
		panic("agile: timeline width must be positive")
	}
	c.binMu.Lock()
	c.binWidth = width
	c.binMu.Unlock()
}

// recordOutcome buckets one task fate by its submission time.
func (c *Cluster) recordOutcome(at float64, admitted bool) {
	c.binMu.Lock()
	defer c.binMu.Unlock()
	if c.binWidth <= 0 {
		return
	}
	idx := int(at / c.binWidth)
	for len(c.bins) <= idx {
		c.bins = append(c.bins, TimelineBin{Start: float64(len(c.bins)) * c.binWidth})
	}
	c.bins[idx].Offered++
	if admitted {
		c.bins[idx].Admitted++
	}
}

// Timeline returns a copy of the recorded bins.
func (c *Cluster) Timeline() []TimelineBin {
	c.binMu.Lock()
	defer c.binMu.Unlock()
	return append([]TimelineBin(nil), c.bins...)
}

// NewCluster builds and starts a cluster on the given network. The
// network must have exactly cfg.Hosts endpoints.
func NewCluster(cfg Config, net transport.Network) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net.N() != cfg.Hosts {
		return nil, fmt.Errorf("agile: network has %d endpoints, config wants %d", net.N(), cfg.Hosts)
	}
	c := &Cluster{cfg: cfg, net: net, naming: naming.New(), epoch: time.Now()}
	for i := 0; i < cfg.Hosts; i++ {
		c.hosts = append(c.hosts, newHost(i, c))
	}
	for _, h := range c.hosts {
		h.start()
	}
	return c, nil
}

// now returns the scaled cluster time in seconds.
func (c *Cluster) now() float64 {
	return time.Since(c.epoch).Seconds() * c.cfg.TimeScale
}

// toWall converts a scaled duration (seconds) to wall time.
func (c *Cluster) toWall(scaled float64) time.Duration {
	return time.Duration(scaled / c.cfg.TimeScale * float64(time.Second))
}

// Now returns the scaled cluster clock in seconds — the live
// counterpart of the simulator's sim.Time axis.
func (c *Cluster) Now() float64 { return c.now() }

// ToWall converts a scaled duration (seconds) to wall-clock time, for
// callers scheduling external events (fault schedules) against the
// cluster clock.
func (c *Cluster) ToWall(scaled float64) time.Duration { return c.toWall(scaled) }

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

// Naming returns the cluster's naming service.
func (c *Cluster) Naming() *naming.Service { return c.naming }

// Network returns the underlying transport.
func (c *Cluster) Network() transport.Network { return c.net }

// Stop shuts down all hosts and the transport.
func (c *Cluster) Stop() {
	for _, h := range c.hosts {
		h.stop()
	}
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
		st.Migrated += h.Stats.MigratedOut.Load()
		st.MigrateFail += h.Stats.MigrateFail.Load()
	}
	// Admission is counted from the submitter's perspective: offered
	// minus everything the one-try pipeline rejected.
	var rejected uint64
	for _, h := range c.hosts {
		rejected += h.Stats.RejectedRun.Load()
	}
	st.Rejected = rejected
	if st.Offered >= rejected {
		st.Admitted = st.Offered - rejected
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

// settle sleeps long enough for queued commands, in-flight negotiations
// (including MaxTries retry chains) and their timeouts to resolve.
func (c *Cluster) settle() {
	tries := c.cfg.MaxTries
	if tries <= 0 {
		tries = 1
	}
	time.Sleep(time.Duration(tries+1)*c.cfg.NegotiationTimeout + 50*time.Millisecond)
}

// Drive submits a Poisson workload: system-wide rate lambda (in scaled
// seconds), exponential sizes with the given mean, uniformly random
// hosts, for duration scaled seconds of arrivals. It blocks until all
// arrivals are submitted, then waits for in-flight negotiations to
// settle and returns the aggregated stats. The cluster remains running.
func (c *Cluster) Drive(lambda, meanSize, duration float64, seed int64) metrics.RunStats {
	if lambda <= 0 || meanSize <= 0 || duration <= 0 {
		panic("agile: workload parameters must be positive")
	}
	stream := rng.New(seed)
	arrivals := stream.Derive("arrivals")
	sizes := stream.Derive("sizes")
	hosts := stream.Derive("hosts")
	slacks := stream.Derive("slacks")

	var id uint64
	start := c.now()
	next := start
	for {
		next += arrivals.Exp(1 / lambda)
		if next-start > duration {
			break
		}
		// Sleep in wall time until the arrival instant.
		if delta := next - c.now(); delta > 0 {
			time.Sleep(c.toWall(delta))
		}
		id++
		slack := c.cfg.DeadlineSlack
		if slack <= 0 {
			slack = 10
		}
		slack *= slacks.Uniform(0.25, 1.75)
		comp := Component{
			ID:       id,
			Cost:     sizes.Exp(meanSize),
			Deadline: next + slack*meanSize,
			Priority: 0,
		}
		c.hosts[hosts.Intn(len(c.hosts))].Submit(comp)
	}
	c.settle()
	return c.RunStats()
}

// DriveSourceCtx replays a pre-built workload source on the live
// cluster: each task arrives at its scaled Arrive instant on its
// designated node, exactly as the simulator's engine.Run consumes the
// same source (the drive stops at the first task with Arrive ≥ duration,
// matching the engine's cutoff, so Offered counts agree run-for-run).
// Deadlines are not modelled — the simulator has none — and task Require
// attributes are ignored (the live fabric is attribute-free). It blocks
// until all arrivals are submitted and in-flight negotiations settle,
// then returns the aggregated stats. The cluster remains running.
//
// Cancellation is cooperative: the context is polled before each
// submission and interrupts the wall-clock wait for the next arrival
// instant. On cancellation the drive stops submitting immediately,
// skips the settle wait (in-flight negotiations are abandoned, not
// resolved), and reports canceled=true with whatever stats had
// accumulated — partial numbers that must not be compared against a
// completed run.
func (c *Cluster) DriveSourceCtx(ctx context.Context, src workload.Source, duration float64) (st metrics.RunStats, canceled bool) {
	if duration <= 0 {
		panic("agile: drive duration must be positive")
	}
	start := c.now()
	for {
		if ctx.Err() != nil {
			return c.RunStats(), true
		}
		t, ok := src.Next()
		if !ok || float64(t.Arrive) >= duration {
			break
		}
		if delta := start + float64(t.Arrive) - c.now(); delta > 0 {
			timer := time.NewTimer(c.toWall(delta))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return c.RunStats(), true
			}
		}
		// Task IDs are shifted by one so a source emitting ID 0 cannot
		// collide with "unregistered" sentinels anywhere downstream.
		c.hosts[int(t.Node)].Submit(Component{ID: t.ID + 1, Cost: t.Size})
	}
	c.settle()
	return c.RunStats(), false
}
