package agile

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"realtor/internal/agile/transport"
	"realtor/internal/protocol"
	"realtor/internal/sim"
)

// driver feeds a cluster's hosts their inputs, each as one Host.Step,
// and keeps the cluster clock in scaled seconds since the cluster
// started, the simulator's sim.Time axis. The two drivers differ only in
// where that clock comes from (DESIGN.md §9.1): simDriver keeps it
// virtual and serves fabrics that deliver inline (the in-process
// "chan"); wallDriver reads the wall clock and serves UDP, whose packets
// arrive on the sockets' reader goroutines.
type driver interface {
	clock() float64
	// post makes fn a step of h at the current instant, after the
	// caller returns; a no-op once the cluster is stopped.
	post(h *Host, fn func())
	// call makes fn a step of h and waits for it (or for Stop).
	call(h *Host, fn func())
	// after arms a host timer: fn runs as a step of h d scaled seconds
	// after the step in progress, unless the timer is stopped first.
	after(h *Host, d float64, fn func()) protocol.Timer
	// at runs fn at instant t (at once if t is past), off any host,
	// never while another fn given to at runs.
	at(t float64, fn func())
	// sleep runs the cluster until instant t; false if ctx ended first.
	sleep(ctx context.Context, t float64) bool
	stop() // idempotent
}

// newDriver picks the driver the network's delivery calls for and
// attaches it to the network.
func newDriver(c *Cluster) driver {
	if c.net.Inline() {
		d := &simDriver{c: c, sched: sim.New(), seqs: make([]uint64, c.cfg.Hosts)}
		c.net.Attach(d.deliver)
		return d
	}
	d := &wallDriver{c: c, epoch: time.Now(), hosts: make([]wallHost, c.cfg.Hosts)}
	// Mailboxes absorb a burst the host has not stepped through yet; a
	// full inbox drops, as a full socket buffer does.
	for i := range d.hosts {
		d.hosts[i] = wallHost{cmds: make(chan func(), 1024), inbox: make(chan transport.Packet, 4096),
			done: make(chan struct{})}
	}
	c.net.Attach(d.deliver)
	return d
}

// simDriver is the deterministic driver: every step runs on the
// caller's goroutine, on a sim.Scheduler whose axis is the cluster
// clock itself, in the engine's (time, src, seq) order. A packet lands at
// the instant it was sent; a step's sends and timer arms are keyed by
// the sending host and its own count, and commands from outside the
// hosts (arrivals, fault schedules, probes) take the scheduler's
// external namespace, which orders before every host at the same
// instant. It reads no clock and starts no goroutine, and is not safe
// for concurrent use.
type simDriver struct {
	c       *Cluster
	sched   *sim.Scheduler
	seqs    []uint64 // per-host event counters: the seq of (time, src, seq)
	stopped bool
}

// step is one scheduled host input.
type step struct {
	h  *Host
	in Input
}

func (s *step) Fire(now sim.Time) { s.h.Step(float64(now), s.in) }

func (d *simDriver) clock() float64 { return float64(d.sched.Now()) }

// keyed schedules a host-originated input dt from now.
func (d *simDriver) keyed(dt float64, src int, s *step) sim.Event {
	seq := d.seqs[src]
	d.seqs[src]++
	return d.sched.AtKeyed(d.sched.Now()+sim.Time(dt), int32(src), seq, s)
}

// deliver is the fabric's delivery function: the packet lands at the
// instant it was sent, after whatever the sender's step does next.
func (d *simDriver) deliver(to int, p transport.Packet) {
	if !d.stopped {
		d.keyed(0, p.From, &step{h: d.c.hosts[to], in: Input{Packet: &p}})
	}
}

func (d *simDriver) post(h *Host, fn func()) {
	if !d.stopped {
		d.sched.AtRunner(d.sched.Now(), &step{h: h, in: Input{Run: fn}})
	}
}

func (d *simDriver) call(h *Host, fn func()) {
	if !d.stopped {
		h.Step(d.clock(), Input{Run: fn})
	}
}

func (d *simDriver) after(h *Host, dt float64, fn func()) protocol.Timer {
	return simTimer{d.sched, d.keyed(dt, h.id, &step{h: h, in: Input{Run: fn}})}
}

type simTimer struct {
	sched *sim.Scheduler
	ev    sim.Event
}

func (t simTimer) Stop() { t.sched.Cancel(t.ev) }

func (d *simDriver) at(t float64, fn func()) {
	d.sched.At(max(sim.Time(t), d.sched.Now()), func(sim.Time) { fn() })
}

// sleep fires every event before instant t, then sets the clock to it,
// so that a command posted next runs before any host's step at that
// instant.
func (d *simDriver) sleep(ctx context.Context, t float64) bool {
	if ctx.Err() != nil {
		return false
	}
	end := sim.Time(t)
	if d.stopped || end <= d.sched.Now() {
		return true
	}
	d.sched.RunBelow(sim.EventKey{When: end, Src: math.MinInt32})
	d.sched.AdvanceTo(end)
	return true
}

func (d *simDriver) stop() { d.stopped = true }

// wallDriver is the goroutine driver: one actor loop per host. It alone
// converts scaled seconds to and from wall time, at Config.TimeScale.
type wallDriver struct {
	c     *Cluster
	epoch time.Time
	hosts []wallHost
	wg    sync.WaitGroup

	mu      sync.Mutex // guards timers, stopped
	timers  []*time.Timer
	stopped bool

	cmd sync.Mutex // held by a timed command while it runs
}

// wallHost is one actor loop's mailboxes.
type wallHost struct {
	cmds  chan func()
	inbox chan transport.Packet
	done  chan struct{}
}

// start launches the actor loops: each turns its host's inputs into
// steps at the clock's reading.
func (d *wallDriver) start() {
	d.wg.Add(len(d.c.hosts))
	for _, h := range d.c.hosts {
		go func(w *wallHost) {
			defer d.wg.Done()
			for {
				select {
				case <-w.done:
					return
				case fn := <-w.cmds:
					h.Step(d.clock(), Input{Run: fn})
				case p := <-w.inbox:
					h.Step(d.clock(), Input{Packet: &p})
				}
			}
		}(&d.hosts[h.id])
	}
}

func (d *wallDriver) clock() float64 { return time.Since(d.epoch).Seconds() * d.c.cfg.TimeScale }

// wall converts a span of scaled seconds to wall time.
func (d *wallDriver) wall(scaled float64) time.Duration {
	return time.Duration(scaled / d.c.cfg.TimeScale * float64(time.Second))
}

func (d *wallDriver) deliver(to int, p transport.Packet) {
	select {
	case d.hosts[to].inbox <- p:
	default:
	}
}

func (d *wallDriver) post(h *Host, fn func()) {
	w := &d.hosts[h.id]
	select {
	case w.cmds <- fn:
	case <-w.done:
	}
}

func (d *wallDriver) call(h *Host, fn func()) {
	done := make(chan struct{})
	d.post(h, func() {
		defer close(done)
		fn()
	})
	select {
	case <-done:
	case <-d.hosts[h.id].done:
	}
}

func (d *wallDriver) after(h *Host, dt float64, fn func()) protocol.Timer {
	t := &wallTimer{}
	t.timer = time.AfterFunc(d.wall(dt), func() {
		d.post(h, func() {
			if !t.stopped.Load() {
				fn()
			}
		})
	})
	return t
}

// wallTimer's flag covers what a stopped time.Timer does not: a timer
// that already fired and queued its step before being stopped.
type wallTimer struct {
	timer   *time.Timer
	stopped atomic.Bool
}

func (t *wallTimer) Stop() {
	t.stopped.Store(true)
	t.timer.Stop()
}

// at runs fn on a timer goroutine, never while another timed command
// runs, so a fault schedule's state needs no lock of its own, as on the
// deterministic driver; stop cancels what has not fired.
func (d *wallDriver) at(t float64, fn func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.stopped {
		d.timers = append(d.timers, time.AfterFunc(d.wall(t-d.clock()), func() {
			d.cmd.Lock()
			defer d.cmd.Unlock()
			fn()
		}))
	}
}

func (d *wallDriver) sleep(ctx context.Context, t float64) bool {
	dt := d.wall(t - d.clock())
	if dt <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(dt)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (d *wallDriver) stop() {
	d.mu.Lock()
	if !d.stopped {
		d.stopped = true
		for _, t := range d.timers {
			t.Stop()
		}
		for i := range d.hosts {
			close(d.hosts[i].done)
		}
	}
	d.mu.Unlock()
	d.wg.Wait()
}
