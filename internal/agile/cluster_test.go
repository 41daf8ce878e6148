package agile

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"realtor/internal/agile/transport"
	"realtor/internal/core"
	"realtor/internal/metrics"
	"realtor/internal/protocol"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

// fastConfig keeps live tests quick: small cluster, high time scale.
func fastConfig(hosts int) Config {
	cfg := DefaultConfig()
	cfg.Hosts = hosts
	cfg.TimeScale = 500
	cfg.NegotiationTimeout = 100 * time.Millisecond
	return cfg
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, transport.NewChan(cfg.Hosts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// drivePoisson drives a Poisson source (rate lambda, exponential sizes
// of the given mean, uniform hosts) for duration scaled seconds.
func drivePoisson(c *Cluster, lambda, meanSize, duration float64, seed int64) metrics.RunStats {
	src := workload.NewPoisson(lambda, meanSize, c.N(), rng.New(seed))
	st, _ := c.Drive(context.Background(), src, duration)
	return st
}

func TestConfigValidation(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Hosts = 1 },
		func(c *Config) { c.QueueCapacity = 0 },
		func(c *Config) { c.TimeScale = 0 },
		func(c *Config) { c.NegotiationTimeout = 0 },
		func(c *Config) { c.Protocol.Threshold = 0 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestClusterEndpointMismatch(t *testing.T) {
	cfg := fastConfig(4)
	nw := transport.NewChan(3)
	defer nw.Close()
	if _, err := NewCluster(cfg, nw); err == nil {
		t.Fatal("endpoint mismatch accepted")
	}
}

func TestSingleTaskRunsToCompletion(t *testing.T) {
	c := newTestCluster(t, fastConfig(3))
	c.Host(0).Submit(Component{ID: 1, Cost: 5, Deadline: 100})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Host(0).Stats.Completed.Load() == 1 {
			if c.naming.Len() != 0 {
				t.Fatal("completed component still registered")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("task did not complete")
}

func TestLowLoadAllAdmitted(t *testing.T) {
	c := newTestCluster(t, fastConfig(5))
	// λ=1 over 5 hosts at mean 2: per-host utilization 0.4.
	st := drivePoisson(c, 1, 2, 120, 1)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Offered < 50 {
		t.Fatalf("offered only %d", st.Offered)
	}
	if p := st.AdmissionProbability(); p < 0.999 {
		t.Fatalf("admission %v at trivial load", p)
	}
}

func TestOverloadRejectsAndMigrates(t *testing.T) {
	c := newTestCluster(t, fastConfig(5))
	// Heavy: λ=4 × mean 2 = 8 s/s of work on 5 s/s of capacity.
	st := drivePoisson(c, 4, 2, 200, 2)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if p := st.AdmissionProbability(); p > 0.95 || p < 0.3 {
		t.Fatalf("admission %v under 1.6x overload, want mid-range", p)
	}
	if st.Migrated == 0 {
		t.Fatal("no successful migrations under overload")
	}
}

func TestMigrationMovesComponentExactlyOnce(t *testing.T) {
	// Slow time scale: the queues must not drain away mid-assertion.
	cfg := fastConfig(2)
	cfg.TimeScale = 20
	c := newTestCluster(t, cfg)
	h0, h1 := c.Host(0), c.Host(1)
	// Make host 1 pledge to host 0's community: fill host 0 past the
	// threshold so it HELPs, then overflow it so it must migrate.
	h0.Submit(Component{ID: 1, Cost: 49, Deadline: 1e6}) // nearly full (cap 50)
	time.Sleep(50 * time.Millisecond)                    // HELP + PLEDGE round trip
	h0.Submit(Component{ID: 2, Cost: 30, Deadline: 1e6}) // overflow -> migrate
	time.Sleep(200 * time.Millisecond)

	if got := h0.Stats.MigratedOut.Load(); got != 1 {
		t.Fatalf("migrated out %d, want 1", got)
	}
	if got := h1.Stats.MigratedIn.Load(); got != 1 {
		t.Fatalf("migrated in %d, want 1", got)
	}
	// The component must be registered exactly once, on host 1.
	host, ok := c.naming.Lookup(2)
	if !ok || host != 1 {
		t.Fatalf("component 2 at %v (ok=%v), want host 1", host, ok)
	}
	h1.Inspect(func(h *Host) {
		if h.queue.Len() == 0 {
			t.Error("host 1 queue empty after migration")
		}
	})
}

func TestOneTryMigrationRejectsWhenTargetFull(t *testing.T) {
	cfg := fastConfig(2)
	cfg.TimeScale = 20
	c := newTestCluster(t, cfg)
	h0, h1 := c.Host(0), c.Host(1)
	h0.Submit(Component{ID: 1, Cost: 49, Deadline: 1e6})
	time.Sleep(50 * time.Millisecond) // let host 1 pledge
	// Now fill host 1 too, faster than its retraction can propagate any
	// usable alternative (there is none anyway).
	h1.Submit(Component{ID: 2, Cost: 49, Deadline: 1e6})
	time.Sleep(20 * time.Millisecond)
	h0.Submit(Component{ID: 3, Cost: 30, Deadline: 1e6})
	time.Sleep(300 * time.Millisecond)
	st := c.RunStats()
	if st.Admitted != 2 {
		t.Fatalf("admitted %d, want 2", st.Admitted)
	}
	if st.Rejected != 1 {
		t.Fatalf("rejected %d, want 1 (one-try semantics)", st.Rejected)
	}
	if _, ok := c.naming.Lookup(3); ok {
		t.Fatal("rejected component registered")
	}
}

func TestLossyTransportTimesOutNotHangs(t *testing.T) {
	cfg := fastConfig(2)
	cfg.TimeScale = 20
	nw := transport.NewFault(transport.NewChan(2), 3)
	nw.SetDefaultDrop(1) // black hole
	c, err := NewCluster(cfg, nw)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	h0 := c.Host(0)
	h0.Submit(Component{ID: 1, Cost: 49, Deadline: 1e6})
	h0.Submit(Component{ID: 2, Cost: 30, Deadline: 1e6}) // overflow, no candidates ever
	time.Sleep(300 * time.Millisecond)
	st := c.RunStats()
	if st.Offered != 2 || st.Admitted != 1 || st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLiveClusterOverUDP(t *testing.T) {
	cfg := fastConfig(4)
	nw, err := transport.NewUDP(cfg.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(cfg, nw)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	st := drivePoisson(c, 2, 2, 100, 4)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Offered < 30 {
		t.Fatalf("offered %d over UDP", st.Offered)
	}
	if p := st.AdmissionProbability(); p < 0.9 {
		t.Fatalf("admission %v over UDP at moderate load", p)
	}
}

func TestBaselineDiscoveryOnLiveRuntime(t *testing.T) {
	cfg := fastConfig(4)
	cfg.Discovery = func() protocol.Discovery { return core.NewPurePush(cfg.Protocol) }
	c := newTestCluster(t, cfg)
	st := drivePoisson(c, 2, 2, 100, 5)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if p := st.AdmissionProbability(); p < 0.9 {
		t.Fatalf("Push-1 live admission %v", p)
	}
	// Pure push must actually have broadcast adverts.
	if c.net.Sent() < 100 {
		t.Fatalf("suspiciously few packets for pure push: %d", c.net.Sent())
	}
}

func TestRealtorPledgesFlowLive(t *testing.T) {
	cfg := fastConfig(3)
	cfg.TimeScale = 20
	c := newTestCluster(t, cfg)
	h0 := c.Host(0)
	h0.Submit(Component{ID: 1, Cost: 48, Deadline: 1e6})
	time.Sleep(100 * time.Millisecond)
	// Hosts 1 and 2 should have pledged to host 0 after its HELP.
	h0.Inspect(func(h *Host) {
		if got := len(h.disco.Candidates(1)); got != 2 {
			t.Errorf("host 0 candidates = %d, want 2", got)
		}
	})
}

// slowObserver records when each PLEDGE to host 0 was delivered, then
// stalls the delivering actor the way an observer queued on a
// contended lock does.
type slowObserver struct {
	mu sync.Mutex
	at map[topology.NodeID]sim.Time
}

func (o *slowObserver) OnSend(sim.Time, topology.NodeID, topology.NodeID, protocol.Message) {}

func (o *slowObserver) OnDeliver(now sim.Time, to topology.NodeID, m protocol.Message) {
	if to != 0 || m.Kind != protocol.Pledge {
		return
	}
	o.mu.Lock()
	o.at[m.From] = now
	o.mu.Unlock()
	time.Sleep(20 * time.Millisecond)
}

func (o *slowObserver) OnDrop(sim.Time, topology.NodeID, topology.NodeID, protocol.Message, string) {}

func (o *slowObserver) OnInject(sim.Time, topology.NodeID, float64) {}

// The instant an observer is told a pledge was delivered is the
// instant the organizer stamps on its entry, however long the observer
// held the actor: the invariant oracle compares the two.
func TestDeliveryStampsTheObservedInstant(t *testing.T) {
	cfg := fastConfig(3)
	cfg.TimeScale = 20 // a 20 ms stall is 0.4 scaled seconds
	obs := &slowObserver{at: make(map[topology.NodeID]sim.Time)}
	cfg.Observer = obs
	c := newTestCluster(t, cfg)
	h0 := c.Host(0)
	h0.Submit(Component{ID: 1, Cost: 48, Deadline: 1e6})
	time.Sleep(150 * time.Millisecond)
	h0.Inspect(func(h *Host) {
		cands := h.disco.Candidates(1)
		if len(cands) != 2 {
			t.Errorf("host 0 candidates = %d, want 2", len(cands))
		}
		obs.mu.Lock()
		defer obs.mu.Unlock()
		for _, cd := range cands {
			if want, ok := obs.at[cd.ID]; !ok || cd.At != want {
				t.Errorf("entry for host %d stamped t=%v, pledge delivered at t=%v (seen %v)",
					cd.ID, cd.At, want, ok)
			}
		}
	})
}

func TestStopIsIdempotentAndQuick(t *testing.T) {
	cfg := fastConfig(3)
	c, err := NewCluster(cfg, transport.NewChan(cfg.Hosts))
	if err != nil {
		t.Fatal(err)
	}
	c.Host(0).Submit(Component{ID: 1, Cost: 10, Deadline: 100})
	done := make(chan struct{})
	go func() {
		// A caller may stop a cluster on an error path and again on a
		// deferred one; a post to a stopped host is a silent no-op.
		c.Stop()
		c.Stop()
		c.Host(1).post(func() {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Stop hung")
	}
}

func TestLiveKillAndRevive(t *testing.T) {
	cfg := fastConfig(3)
	cfg.TimeScale = 50
	c := newTestCluster(t, cfg)
	h0 := c.Host(0)
	h0.Submit(Component{ID: 1, Cost: 40, Deadline: 1e6})
	time.Sleep(30 * time.Millisecond)
	h0.Kill()
	h0.Kill() // idempotent
	time.Sleep(30 * time.Millisecond)
	h0.Inspect(func(h *Host) {
		if h.Alive() {
			t.Error("killed host alive")
		}
		if h.queue.Len() != 0 {
			t.Error("killed host kept its queue")
		}
	})
	if c.naming.Len() != 0 {
		t.Fatal("killed host's components still registered")
	}
	// Arrivals at the dead host are lost.
	h0.Submit(Component{ID: 2, Cost: 5, Deadline: 1e6})
	time.Sleep(30 * time.Millisecond)
	if got := h0.Stats.RejectedRun.Load(); got != 1 {
		t.Fatalf("dead-host rejections %d, want 1", got)
	}
	// Revive restores service with fresh protocol state.
	h0.Revive()
	h0.Revive() // idempotent
	time.Sleep(10 * time.Millisecond)
	h0.Submit(Component{ID: 3, Cost: 5, Deadline: 1e6})
	time.Sleep(50 * time.Millisecond)
	h0.Inspect(func(h *Host) {
		if !h.Alive() {
			t.Error("revived host not alive")
		}
	})
	if host, ok := c.naming.Lookup(3); !ok || host != 0 {
		t.Fatalf("component 3 at %v ok=%v after revive", host, ok)
	}
}

func TestLiveClusterSurvivesHostLoss(t *testing.T) {
	cfg := fastConfig(5)
	c := newTestCluster(t, cfg)
	// Take one host down mid-drive in the background.
	go func() {
		time.Sleep(150 * time.Millisecond)
		c.Host(2).Kill()
		time.Sleep(150 * time.Millisecond)
		c.Host(2).Revive()
	}()
	st := drivePoisson(c, 2, 2, 250, 9)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1/5 of arrivals hit the dead host for ~30% of the run; the rest of
	// the cluster keeps serving.
	if p := st.AdmissionProbability(); p < 0.85 {
		t.Fatalf("admission %v with one host down part-time", p)
	}
}

func TestLiveRetryWalksList(t *testing.T) {
	cfg := fastConfig(3)
	cfg.TimeScale = 20
	cfg.MaxTries = 2
	c := newTestCluster(t, cfg)
	h0, h1, h2 := c.Host(0), c.Host(1), c.Host(2)
	// Fill host 0 so it HELPs; hosts 1 and 2 pledge.
	h0.Submit(Component{ID: 1, Cost: 49, Deadline: 1e6})
	time.Sleep(50 * time.Millisecond)
	// Fill host 1 quietly (below its crossing retraction? 49 > 45 so it
	// retracts — fill host 1 to 40 instead so it stays pledged but can't
	// take a 30s task).
	h1.Submit(Component{ID: 2, Cost: 40, Deadline: 1e6})
	time.Sleep(20 * time.Millisecond)
	// Overflow host 0 with a 30s task: best candidate is host 1 (pledged
	// 50 before filling), which denies; retry lands it on host 2.
	h0.Submit(Component{ID: 3, Cost: 30, Deadline: 1e6})
	time.Sleep(300 * time.Millisecond)
	st := c.RunStats()
	if st.Admitted != 3 {
		t.Fatalf("admitted %d, want 3 (retry should rescue the task): %+v", st.Admitted, st)
	}
	if h2.Stats.MigratedIn.Load()+h1.Stats.MigratedIn.Load() == 0 {
		t.Fatal("no migration happened at all")
	}
	if host, ok := c.naming.Lookup(3); !ok || (host != 2 && host != 1) {
		t.Fatalf("component 3 at %v ok=%v", host, ok)
	}
}

func TestStaleVersionAdmissionDenied(t *testing.T) {
	cfg := fastConfig(2)
	cfg.TimeScale = 20
	c := newTestCluster(t, cfg)
	h1 := c.Host(1)
	// Component 7 is registered at host 0 with version 1; a request
	// carrying a stale observed version must be denied outright.
	c.naming.Register(7, 0)
	h1.Inspect(func(h *Host) {
		h.handleAdmissionRequest(0, transport.Admission{
			Request: true, Seq: 1, Component: 7, Cost: 5, Version: 99,
		})
	})
	time.Sleep(20 * time.Millisecond)
	if got := h1.Stats.MigratedIn.Load(); got != 0 {
		t.Fatalf("stale-version request accepted: migrated-in %d", got)
	}
	h1.Inspect(func(h *Host) {
		if h.queue.Len() != 0 {
			t.Error("stale-version component enqueued")
		}
	})
	// A matching version is accepted and moves the naming entry.
	h1.Inspect(func(h *Host) {
		h.handleAdmissionRequest(0, transport.Admission{
			Request: true, Seq: 2, Component: 7, Cost: 5, Version: 1,
		})
	})
	time.Sleep(20 * time.Millisecond)
	if host, ok := c.naming.Lookup(7); !ok || host != 1 {
		t.Fatalf("component 7 at %v ok=%v, want host 1", host, ok)
	}
	if got := h1.Stats.MigratedIn.Load(); got != 1 {
		t.Fatalf("matching-version request not accepted: %d", got)
	}
}

func TestLostGrantCountsAsPlacedNotDuplicated(t *testing.T) {
	cfg := fastConfig(3)
	cfg.TimeScale = 20
	cfg.MaxTries = 3
	c := newTestCluster(t, cfg)
	h0 := c.Host(0)
	// Simulate "previous attempt's grant was lost": the component is
	// registered and already placed at host 2. A retry from host 0 must
	// recognize the placement instead of shipping a duplicate.
	c.naming.Register(9, 0)
	e, _ := c.naming.Get(9)
	c.naming.Move(9, 2, e.Version)
	h0.Inspect(func(h *Host) {
		h.tryMigrate(Component{ID: 9, Cost: 5, Deadline: 1e6}, 2)
	})
	time.Sleep(30 * time.Millisecond)
	if got := h0.Stats.MigratedOut.Load(); got != 1 {
		t.Fatalf("lost-grant retry did not count as placed: %d", got)
	}
	if got := h0.Stats.RejectedRun.Load(); got != 0 {
		t.Fatalf("lost-grant retry rejected: %d", got)
	}
	// And no duplicate was shipped anywhere.
	if got := c.Host(1).Stats.MigratedIn.Load() + c.Host(2).Stats.MigratedIn.Load(); got != 0 {
		t.Fatalf("duplicate shipment detected: %d", got)
	}
}

// driveDeadlines drives a fixed 24-task trace over three hosts whose
// queues hold it all and drain none of it within the test, and returns
// every queued component's deadline by ID together with the cluster
// clock read just before the drive began.
func driveDeadlines(t *testing.T, slack float64) (map[uint64]float64, float64) {
	t.Helper()
	cfg := fastConfig(3)
	cfg.QueueCapacity = 1e6
	cfg.TimeScale = 100
	cfg.NegotiationTimeout = 10 * time.Millisecond
	cfg.DeadlineSlack = slack
	c := newTestCluster(t, cfg)
	tasks := make([]workload.Task, 24)
	for i := range tasks {
		tasks[i] = workload.Task{ID: uint64(i), Node: topology.NodeID(i % 3),
			Size: 1e4, Arrive: sim.Time(i) * 0.25}
	}
	before := c.Now()
	if _, canceled := c.Drive(context.Background(), workload.NewTrace(tasks), 100); canceled {
		t.Fatal("drive canceled")
	}
	deadlines := map[uint64]float64{}
	for id := 0; id < c.N(); id++ {
		c.Host(id).Inspect(func(h *Host) {
			for _, j := range h.queue.Snapshot() {
				deadlines[j.ID] = j.Deadline
			}
		})
	}
	if len(deadlines) != len(tasks) {
		t.Fatalf("%d of %d components queued", len(deadlines), len(tasks))
	}
	return deadlines, before
}

// The drive loop's deadline rule: arrival + U·DeadlineSlack with U in
// [0.25, 1.75], drawn per task ID, so the same source yields the same
// deadlines (relative to the drive's start) on every run; slack 0 means
// no deadlines at all.
func TestDriveDeadlineRule(t *testing.T) {
	const slack = 15
	first, before := driveDeadlines(t, slack)
	second, _ := driveDeadlines(t, slack)
	// The drive starts a few wall-milliseconds after `before`; at 100x
	// that is well under one scaled second.
	const startSkew = 1.0
	spread := map[float64]bool{}
	for id, d := range first {
		rel := d - before - float64(id-1)*0.25 // component IDs are task IDs + 1
		if rel < 0.25*slack || rel > 1.75*slack+startSkew {
			t.Fatalf("component %d: deadline %.3f s after arrival, want within [%g, %g]",
				id, rel, 0.25*slack, 1.75*slack)
		}
		spread[math.Round(rel)] = true
		// Both runs start their drives at different cluster instants, so
		// compare deadlines relative to component 1's.
		if got, want := second[id]-second[1], d-first[1]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("component %d: relative deadline %v on the second run, %v on the first", id, got, want)
		}
	}
	if len(spread) < 4 {
		t.Fatalf("deadline slack takes only %d distinct values; want mixed urgency", len(spread))
	}
	none, _ := driveDeadlines(t, 0)
	for id, d := range none {
		if d != 0 {
			t.Fatalf("component %d carries deadline %v with DeadlineSlack 0", id, d)
		}
	}
}

// recordingSource remembers the Arrive of every task it hands out.
type recordingSource struct {
	src     workload.Source
	arrives map[float64]int
}

func (r *recordingSource) Next() (workload.Task, bool) {
	t, ok := r.src.Next()
	if ok {
		r.arrives[float64(t.Arrive)]++
	}
	return t, ok
}

// OnOutcome reports a driven task's own Arrive, on the drive's clock —
// not the cluster clock, which had been running since NewCluster when
// Drive began — so every reported instant is one a submitted task
// carries, and none lies past the drive's duration.
func TestOnOutcomeReportsTheTasksArrive(t *testing.T) {
	const duration = 40.0
	var mu sync.Mutex
	var got []float64
	cfg := fastConfig(4)
	cfg.OnOutcome = func(arrive float64, _ bool) {
		mu.Lock()
		got = append(got, arrive)
		mu.Unlock()
	}
	c, err := NewCluster(cfg, transport.NewChan(cfg.Hosts))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the cluster clock runs ahead of the drive's
	src := &recordingSource{src: workload.NewPoisson(3, 2, c.N(), rng.New(5)), arrives: map[float64]int{}}
	st, _ := c.Drive(context.Background(), src, duration)
	c.Stop() // no outcome fires after the actors exit
	mu.Lock()
	defer mu.Unlock()
	if uint64(len(got)) != st.Offered || len(got) == 0 {
		t.Fatalf("%d outcomes for %d offered tasks", len(got), st.Offered)
	}
	for _, at := range got {
		if at >= duration {
			t.Fatalf("outcome stamped %v, past the %v-second drive", at, duration)
		}
		if src.arrives[at] == 0 {
			t.Fatalf("outcome stamped %v, which no submitted task (or too few) carries", at)
		}
		src.arrives[at]--
	}
}
