package dht

import (
	"fmt"

	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Config tunes the Chord-style discovery overlay.
type Config struct {
	// Protocol supplies the REALTOR parameters the overlay reuses:
	// Threshold (when a node is overloaded / may advertise), PledgeWait
	// (how long a GET waits for its FOUND), EntryTTL (directory and
	// cache soft-state lifetime), and the Algorithm-H knobs HelpInit /
	// HelpUpper / HelpMin / Alpha / Beta governing the adaptive GET
	// interval.
	Protocol protocol.Config

	// N is the static membership size (the run's node count).
	N int

	// Bands is how many headroom bands partition the directory key
	// space; band b holds providers with headroom in
	// [b, b+1) × Capacity/Bands. 0 means 8.
	Bands int

	// Refresh is the period at which providers re-PUT their entry so it
	// outlives the EntryTTL. 0 means EntryTTL/2.
	Refresh sim.Time

	// MaxHops is the overlay routing TTL. 0 means 2⌈log₂N⌉+8, far above
	// Chord's O(log N) expected path length.
	MaxHops int

	// FoundLimit caps the candidates one FOUND carries. 0 means 3.
	FoundLimit int
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if err := c.Protocol.Validate(); err != nil {
		return err
	}
	if c.N < 1 {
		return fmt.Errorf("dht: need at least 1 node")
	}
	if c.Bands < 0 || c.Refresh < 0 || c.MaxHops < 0 || c.FoundLimit < 0 {
		return fmt.Errorf("dht: negative parameter")
	}
	return nil
}

func (c Config) bands() int {
	if c.Bands == 0 {
		return 8
	}
	return c.Bands
}

func (c Config) refresh() sim.Time {
	if c.Refresh == 0 {
		return c.Protocol.EntryTTL / 2
	}
	return c.Refresh
}

func (c Config) maxHops() int {
	if c.MaxHops > 0 {
		return c.MaxHops
	}
	h := 8
	for n := 1; n < c.N; n *= 2 {
		h += 2
	}
	return h
}

func (c Config) foundLimit() int {
	if c.FoundLimit == 0 {
		return 3
	}
	return c.FoundLimit
}

// Build validates cfg, computes the shared identifier ring once, and
// returns a per-node constructor suitable for engine.Builder: every
// instance closes over the same immutable Ring.
func Build(cfg Config) func() protocol.Discovery {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ring := NewRing(cfg.N, cfg.bands())
	return func() protocol.Discovery { return New(cfg, ring) }
}

// D is one node's DHT discovery instance.
type D struct {
	cfg  Config
	ring *Ring
	env  protocol.Env

	fingers []finger

	// dir[b] is the slice of band-b directory this node is home for
	// (allocated lazily: most nodes are home to no band).
	dir []*protocol.PledgeList
	// cache holds candidates learned from FOUND answers; Candidates
	// serves from it exactly as REALTOR serves from its pledge list.
	cache *protocol.PledgeList

	// Adaptive GET interval: the overlay analogue of Algorithm H. An
	// unanswered GET multiplies the interval by 1+Alpha (capped at
	// HelpUpper); a successful migration multiplies it by 1-Beta
	// (floored at HelpMin).
	interval sim.Time
	lastGet  sim.Time
	hasGet   bool // a GET has been issued this incarnation
	await    protocol.Timer

	refresh protocol.Timer

	// lastBand is the band the latest PUT advertised (-1: none).
	lastBand  int
	lastPutAt sim.Time

	dead bool

	gets, puts, founds, forwards, dropped uint64
}

var _ protocol.Discovery = (*D)(nil)

// New returns a node instance bound to the shared ring. Most callers
// want Build; New exists for tests that inspect the ring directly.
func New(cfg Config, ring *Ring) *D {
	return &D{
		cfg:      cfg,
		ring:     ring,
		cache:    protocol.NewPledgeList(cfg.Protocol.EntryTTL),
		interval: cfg.Protocol.HelpInit,
		lastBand: -1,
	}
}

// Name labels the protocol in tables and legends.
func (d *D) Name() string { return fmt.Sprintf("DHT-%d", d.cfg.bands()) }

// Attach computes the finger table, schedules the node's initial
// availability publish, and starts the refresh cycle. The first publish
// goes through a zero-delay timer rather than a direct send: Attach runs
// during engine construction, before oracles bind to the observer hooks,
// and a send issued here would deliver without its send ever being
// observed. The timer fires at the same instant inside the event loop.
func (d *D) Attach(env protocol.Env) {
	d.env = env
	d.fingers = d.ring.Fingers(env.Self())
	d.lastGet = -d.cfg.Protocol.HelpUpper // first GET is never rate-limited
	d.env.After(0, func() {
		if d.dead {
			return
		}
		d.publish()
	})
	d.armRefresh()
}

func (d *D) armRefresh() {
	d.refresh = d.env.After(d.cfg.refresh(), func() {
		if d.dead {
			return
		}
		d.publish()
		d.armRefresh()
	})
}

// bandFor maps a headroom (or demanded size) to its band index.
func (d *D) bandFor(h float64) int {
	cap := d.env.Capacity()
	if cap <= 0 {
		return 0
	}
	b := int(h / cap * float64(d.cfg.bands()))
	if b < 0 {
		b = 0
	}
	if b >= d.cfg.bands() {
		b = d.cfg.bands() - 1
	}
	return b
}

// publish PUTs the node's current availability into the directory: an
// entry in the current band when the node is an eligible provider
// (below threshold with spare room), plus a retraction from the
// previously advertised band when the band changed or eligibility was
// lost — the overlay mirror of REALTOR's pledge/retraction pair.
func (d *D) publish() {
	now := d.env.Now()
	h := d.env.Headroom()
	eligible := d.env.Usage() < d.cfg.Protocol.Threshold && h > 0
	band := -1
	if eligible {
		band = d.bandFor(h)
	}
	if d.lastBand >= 0 && d.lastBand != band {
		d.put(d.lastBand, 0) // retract the stale entry
	}
	if band >= 0 {
		d.put(band, h)
	}
	d.lastBand = band
	d.lastPutAt = now
}

// put routes one directory write (headroom 0 = retraction) to band b's
// home node.
func (d *D) put(b int, headroom float64) {
	d.puts++
	d.route(protocol.Message{
		Kind:     protocol.DHTPut,
		From:     d.env.Self(),
		Origin:   d.env.Self(),
		Headroom: headroom,
		Key:      d.ring.BandKey(b),
	})
}

// route delivers m toward its key: locally when this node is the home,
// otherwise one greedy Chord hop over the real topology.
func (d *D) route(m protocol.Message) {
	if d.ring.Home(m.Key) == d.env.Self() {
		d.handleAtHome(m)
		return
	}
	d.env.Unicast(d.ring.NextHop(d.env.Self(), d.fingers, m.Key), m)
}

// OnArrival re-publishes drifted availability and, when the arrival
// would push the node past its threshold, issues a rate-limited GET for
// the band that fits the task.
func (d *D) OnArrival(size float64) {
	if d.dead {
		return
	}
	now := d.env.Now()
	// Band drift: availability moved far enough that the directory entry
	// is in the wrong band. Republishing is rate-limited by PushInterval
	// so a busy node does not PUT on every arrival.
	h := d.env.Headroom()
	eligible := d.env.Usage() < d.cfg.Protocol.Threshold && h > 0
	band := -1
	if eligible {
		band = d.bandFor(h)
	}
	if band != d.lastBand && now-d.lastPutAt >= d.cfg.Protocol.PushInterval {
		d.publish()
	}

	if !d.wouldExceed(size) {
		return
	}
	if d.hasGet && now-d.lastGet < d.interval {
		return
	}
	d.lastGet, d.hasGet = now, true
	d.gets++
	// Lookups start at the TOP band: providers pool where headroom is
	// largest, so the top band's home answers most GETs in one leg, and
	// serveGet cascades downward only while bands come up empty. (Bands
	// are lower bounds on provider headroom, so any band can hold a
	// fitting provider for any demand.)
	d.route(protocol.Message{
		Kind:   protocol.DHTGet,
		From:   d.env.Self(),
		Origin: d.env.Self(),
		Demand: size,
		Key:    d.ring.BandKey(d.cfg.bands() - 1),
	})
	d.armAwait()
}

// wouldExceed mirrors core.Realtor's pull trigger: admitting size
// seconds of work would cross the usage threshold.
func (d *D) wouldExceed(size float64) bool {
	cap := d.env.Capacity()
	return d.env.Usage()*cap+size > d.cfg.Protocol.Threshold*cap
}

// armAwait starts the no-answer timeout: a GET that produces no FOUND
// within PledgeWait backs the interval off (Algorithm H's penalty).
func (d *D) armAwait() {
	if d.await != nil {
		d.await.Stop()
	}
	d.await = d.env.After(d.cfg.Protocol.PledgeWait, func() {
		if d.dead {
			return
		}
		d.interval *= sim.Time(1 + d.cfg.Protocol.Alpha)
		if d.interval > d.cfg.Protocol.HelpUpper {
			d.interval = d.cfg.Protocol.HelpUpper
		}
	})
}

// OnUsageCrossing republishes immediately: crossing up retracts the
// directory entry (the node stopped being a provider), crossing down
// restores it.
func (d *D) OnUsageCrossing(bool) {
	if d.dead {
		return
	}
	d.publish()
}

// Deliver handles overlay traffic: forwards messages this node is not
// the home for, and otherwise serves directory writes and lookups.
func (d *D) Deliver(m protocol.Message) {
	if d.dead {
		return
	}
	switch m.Kind {
	case protocol.DHTPut, protocol.DHTGet:
		if d.ring.Home(m.Key) != d.env.Self() {
			m.Hop++
			if m.Hop >= d.cfg.maxHops() {
				d.dropped++ // routing loop guard; the requester's timeout recovers
				return
			}
			d.forwards++
			d.env.Unicast(d.ring.NextHop(d.env.Self(), d.fingers, m.Key), m)
			return
		}
		d.handleAtHome(m)
	case protocol.DHTFound:
		d.absorb(m)
	}
}

// handleAtHome serves a message whose key this node is responsible for.
func (d *D) handleAtHome(m protocol.Message) {
	b := d.ring.BandOf(m.Key)
	if b < 0 {
		return
	}
	switch m.Kind {
	case protocol.DHTPut:
		if d.dir == nil {
			d.dir = make([]*protocol.PledgeList, d.cfg.bands())
		}
		if d.dir[b] == nil {
			d.dir[b] = protocol.NewPledgeList(d.cfg.Protocol.EntryTTL)
		}
		if m.Headroom > 0 {
			d.dir[b].Update(d.env.Now(), m.Origin, m.Headroom)
		} else {
			d.dir[b].Remove(m.Origin)
		}
	case protocol.DHTGet:
		d.serveGet(b, m)
	}
}

// serveGet answers a lookup from band b's directory, cascading to the
// next band down while the current one has no fitting provider —
// lookups enter at the top band, and each cascade leg is a fresh route
// with its own hop budget (the TTL guards one leg's routing loop, not
// the whole band walk).
func (d *D) serveGet(b int, m protocol.Message) {
	now := d.env.Now()
	var view []protocol.Candidate
	if d.dir != nil && d.dir[b] != nil {
		for _, c := range d.dir[b].Snapshot(now) {
			if c.ID == m.Origin || c.Headroom < m.Demand {
				continue
			}
			view = append(view, c)
			if len(view) >= d.cfg.foundLimit() {
				break
			}
		}
	}
	if len(view) == 0 {
		if b > 0 {
			next := m
			next.Key = d.ring.BandKey(b - 1)
			next.Hop = 0
			d.route(next) // may forward or serve locally
		}
		return // an unanswered GET times out at the requester
	}
	d.founds++
	ans := protocol.Message{
		Kind:   protocol.DHTFound,
		From:   d.env.Self(),
		Origin: m.Origin,
		Key:    m.Key,
		View:   view,
	}
	if m.Origin == d.env.Self() {
		d.absorb(ans)
		return
	}
	d.env.Unicast(m.Origin, ans)
}

// absorb merges a FOUND answer into the candidate cache and cancels the
// pending no-answer penalty.
func (d *D) absorb(m protocol.Message) {
	now := d.env.Now()
	for _, c := range m.View {
		if c.ID == d.env.Self() || c.At > now {
			continue
		}
		if cur, ok := d.cache.Get(c.ID); ok && cur.At >= c.At {
			continue
		}
		d.cache.UpdateAt(c.At, c.ID, c.Headroom)
	}
	if d.await != nil {
		d.await.Stop()
		d.await = nil
	}
}

// Candidates returns fresh fitting cache entries, best first.
func (d *D) Candidates(size float64) []protocol.Candidate {
	if d.dead {
		return nil
	}
	snap := d.cache.Snapshot(d.env.Now())
	out := snap[:0]
	for _, c := range snap {
		if c.ID != d.env.Self() && c.Headroom >= size {
			out = append(out, c)
		}
	}
	return out
}

// OnMigrationOutcome keeps the cache honest and adapts the GET interval:
// success rewards (×(1−Beta), floored at HelpMin), failure evicts the
// stale candidate.
func (d *D) OnMigrationOutcome(target topology.NodeID, size float64, success bool) {
	if d.dead {
		return
	}
	if success {
		d.cache.Debit(target, size)
		d.interval *= sim.Time(1 - d.cfg.Protocol.Beta)
		if d.interval < d.cfg.Protocol.HelpMin {
			d.interval = d.cfg.Protocol.HelpMin
		}
		return
	}
	d.cache.Remove(target)
}

// OnNodeDeath drops all soft state and stops the timers. A revived node
// gets a fresh instance from the builder.
func (d *D) OnNodeDeath() {
	d.dead = true
	if d.refresh != nil {
		d.refresh.Stop()
	}
	if d.await != nil {
		d.await.Stop()
	}
	d.dir = nil
	d.cache = protocol.NewPledgeList(d.cfg.Protocol.EntryTTL)
}

// Interval exposes the current adaptive GET interval (tests, tables).
func (d *D) Interval() sim.Time { return d.interval }

// Stats returns the node's overlay counters: lookups issued, directory
// writes issued, answers served, messages forwarded, and routing-TTL
// drops.
func (d *D) Stats() (gets, puts, founds, forwards, dropped uint64) {
	return d.gets, d.puts, d.founds, d.forwards, d.dropped
}

// EachOverlayCandidate visits every cached candidate (the oracle's
// I4-overlay provenance surface; includes entries past their TTL, which
// Candidates would already filter).
func (d *D) EachOverlayCandidate(fn func(protocol.Candidate)) {
	d.cache.Each(func(c protocol.Candidate) bool { fn(c); return true })
}

// EachDirectoryEntry visits every directory entry this node is home for.
func (d *D) EachDirectoryEntry(fn func(band int, c protocol.Candidate)) {
	for b, l := range d.dir {
		if l == nil {
			continue
		}
		l.Each(func(c protocol.Candidate) bool { fn(b, c); return true })
	}
}
