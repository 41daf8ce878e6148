// Package core implements REALTOR, the paper's contribution: a resource
// discovery protocol combining an adaptive PULL (Algorithm H: solicited
// HELP floods whose interval adapts multiplicatively to success and
// failure) with an adaptive PUSH (Algorithm P: community members pledge
// spontaneously whenever their resource usage crosses a threshold).
//
// The paper's four comparison protocols of Section 4/5 are those two
// halves on their own or in pure form, so they are disciplines of the
// same Realtor type rather than separate implementations:
//
//	Push-1   pure PUSH:     availability flood every PushInterval
//	Push-.9  adaptive PUSH: availability flood on every threshold crossing
//	Pull-.9  pure PULL:     HELP flood on every qualifying arrival, one
//	                        PLEDGE reply per HELP
//	Pull-100 adaptive PULL: Algorithm H-governed HELP pinned to a fixed
//	                        window of Upper_limit, one PLEDGE reply per HELP
package core

import (
	"fmt"
	"strings"

	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// pullMode is how a node solicits availability (the PULL half).
type pullMode uint8

const (
	noPull       pullMode = iota
	purePull              // HELP on every qualifying arrival (Pull-.9)
	governedPull          // HELP gated by Algorithm H's interval
)

// pushMode is how a node volunteers availability (the PUSH half). The
// crossing-driven modes come last: OnUsageCrossing ignores the rest.
type pushMode uint8

const (
	noPush        pushMode = iota
	periodicPush           // ADVERT flood every PushInterval (Push-1)
	crossingPush           // ADVERT flood on every threshold crossing (Push-.9)
	communityPush          // Algorithm P: PLEDGE to each community on a crossing
)

// discipline selects one of the five contenders; only REALTOR
// (governed pull + community push) keeps memberships, and only governed
// pull runs Algorithm H.
type discipline struct {
	pull pullMode
	push pushMode
}

// membership is one community this node belongs to: the organizer and
// the membership's soft-state expiry.
type membership struct {
	org    topology.NodeID
	expiry sim.Time
}

// Realtor is the full protocol — Algorithm H as community organizer plus
// Algorithm P as community member — or, under a baseline discipline, the
// half of it that baseline keeps.
type Realtor struct {
	cfg protocol.Config
	env protocol.Env
	d   discipline

	dead    bool
	sentAny bool // a HELP has been sent (Algorithm H)

	// Organizer side: availability list built from pledges and adverts.
	list *protocol.PledgeList

	// Member side (community push only): communities this node belongs
	// to, kept sorted by ascending organizer ID at update time. Soft
	// state — never persisted, refreshed by replying to HELPs. The
	// sort-at-update discipline is what lets OnUsageCrossing emit its
	// pledge unicasts in deterministic organizer order without sorting
	// (or allocating) on every threshold crossing.
	members []membership
	mlog    protocol.WriteLog // memberships joined or refreshed

	// Algorithm H (Figure 2 of the paper), governed pull only:
	//
	//	on timeout:           HELP_interval += HELP_interval * alpha  (≤ Upper_limit)
	//	on resource found:    HELP_interval -= HELP_interval * beta   (> 0)
	//
	// The response timer is armed when a HELP is sent and reset by every
	// incoming PLEDGE; it expires — and applies the penalty — only when
	// pledges stop arriving for PledgeWait seconds. The reward fires
	// when "a node is found for migration" (Figure 2), which we pin to a
	// successful migration: this is what keeps the interval at
	// Upper_limit under sustained overload ("due to the repeated failure
	// of finding available resources", the paper's explanation of
	// Figure 7), instead of letting every stray pledge collapse it.
	interval  sim.Time
	lastSent  sim.Time
	penalties uint64
	rewards   uint64

	// timer is Algorithm H's response timer under governed pull, or the
	// advertisement chain under periodic push; no discipline needs both.
	timer   protocol.Timer
	timerFn func() // cached method value: no per-arming closure alloc
}

var _ protocol.Discovery = (*Realtor)(nil)

func newRealtor(cfg protocol.Config, d discipline) *Realtor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Realtor{cfg: cfg, d: d, interval: cfg.HelpInit, list: protocol.NewPledgeList(cfg.EntryTTL)}
	r.timerFn = r.onTimer
	return r
}

// New returns a REALTOR-100 instance with the given configuration.
func New(cfg protocol.Config) *Realtor {
	return newRealtor(cfg, discipline{governedPull, communityPush})
}

// NewPurePush returns Push-1: every node floods its availability every
// PushInterval seconds, regardless of load — the paper's high-overhead
// reference point.
func NewPurePush(cfg protocol.Config) *Realtor {
	return newRealtor(cfg, discipline{noPull, periodicPush})
}

// NewAdaptivePush returns Push-.9: a node floods its availability only
// when its usage crosses the threshold — rising crossings retract,
// falling ones re-advertise.
func NewAdaptivePush(cfg protocol.Config) *Realtor {
	return newRealtor(cfg, discipline{noPull, crossingPush})
}

// NewPurePull returns Pull-.9: every qualifying arrival floods a HELP
// with no interval gating — the unbounded solicitation the paper
// criticizes; receivers below threshold reply exactly once per HELP.
func NewPurePull(cfg protocol.Config) *Realtor {
	return newRealtor(cfg, discipline{purePull, noPush})
}

// NewAdaptivePull returns Pull-100: HELP emission gated by a fixed time
// window of Upper_limit seconds ("adaptive-pull time window = 100" in
// every figure caption). It is REALTOR without its push half and
// without interval adaptation: Algorithm H pinned to the window
// (α = β = 0, initial interval = Upper_limit).
func NewAdaptivePull(cfg protocol.Config) *Realtor {
	cfg.Alpha, cfg.Beta = 0, 0
	cfg.HelpInit = cfg.HelpUpper
	return newRealtor(cfg, discipline{governedPull, noPush})
}

// fracName renders a threshold the way the paper's legends do: 0.9 → ".9".
func fracName(v float64) string {
	return strings.TrimPrefix(fmt.Sprintf("%g", v), "0")
}

// Name identifies the protocol as in the paper's figure legends.
func (r *Realtor) Name() string {
	switch {
	case r.d.push == periodicPush:
		return fmt.Sprintf("Push-%g", float64(r.cfg.PushInterval))
	case r.d.push == crossingPush:
		return "Push-" + fracName(r.cfg.Threshold)
	case r.d.pull == purePull:
		return "Pull-" + fracName(r.cfg.Threshold)
	case r.d.push == noPush:
		return fmt.Sprintf("Pull-%g", float64(r.cfg.HelpUpper))
	}
	return "REALTOR-100"
}

// Attach binds the instance to its node; periodic push starts its
// advertisement chain.
func (r *Realtor) Attach(env protocol.Env) {
	r.env = env
	if r.d.push == periodicPush {
		r.arm(r.cfg.PushInterval)
	}
}

// wouldExceed evaluates the pull trigger: would admitting a task of the
// given size push queue occupancy above the threshold?
func (r *Realtor) wouldExceed(size float64) bool {
	backlog := r.env.Capacity() - r.env.Headroom()
	return backlog+size > r.cfg.Threshold*r.env.Capacity()
}

// OnArrival runs the pull trigger: pure pull floods a HELP on every
// qualifying arrival; governed pull only if at least HELP_interval has
// elapsed since its last HELP.
func (r *Realtor) OnArrival(size float64) {
	if r.dead || r.d.pull == noPull || !r.wouldExceed(size) {
		return
	}
	if r.d.pull == purePull {
		r.env.Flood(r.help(size))
		return
	}
	now := r.env.Now()
	if r.sentAny && now-r.lastSent <= r.interval {
		return
	}
	r.env.Flood(r.help(size))
	r.lastSent = now
	r.sentAny = true
	r.arm(r.cfg.PledgeWait)
}

// help constructs the HELP flood payload; only REALTOR advertises its
// community size.
func (r *Realtor) help(size float64) protocol.Message {
	m := protocol.Message{Kind: protocol.Help, From: r.env.Self(), Demand: size}
	if r.d.push == communityPush {
		m.Members = r.list.Len(r.env.Now())
	}
	return m
}

// arm (re)starts the instance's timer d seconds from now, in place when
// the Env supports it: one timer object per instance instead of one
// allocation per pledge burst or advertisement tick.
func (r *Realtor) arm(d sim.Time) {
	if r.timer != nil {
		if rt, ok := r.timer.(protocol.ResettableTimer); ok && rt.Reset(d) {
			return
		}
		r.timer.Stop()
	}
	r.timer = r.env.After(d, r.timerFn)
}

// onTimer is the periodic-push tick, or Algorithm H's response timeout.
func (r *Realtor) onTimer() {
	if r.d.push == periodicPush {
		r.env.Flood(protocol.Message{Kind: protocol.Advert, From: r.env.Self(), Headroom: r.env.Headroom()})
		r.arm(r.cfg.PushInterval)
		return
	}
	r.timer = nil
	if r.cfg.Alpha == 0 {
		return // fixed-window mode (Pull-100): no adaptation
	}
	// Penalty: expand the interval to back off while the system is
	// saturated, capped at Upper_limit.
	grown := r.interval + r.interval*sim.Time(r.cfg.Alpha)
	if grown <= r.cfg.HelpUpper {
		r.interval = grown
		r.penalties++
	} else if r.interval < r.cfg.HelpUpper {
		r.interval = r.cfg.HelpUpper
		r.penalties++
	}
}

// OnUsageCrossing runs the push half on a threshold crossing. A rising
// crossing retracts availability (headroom 0); a falling one
// re-advertises current headroom. Adaptive push floods it; REALTOR runs
// Algorithm P's member-side spontaneous pledges: "once a host determines
// to be a member of a community, it replies with PLEDGE messages
// whenever its resource usage status changes across the threshold
// level".
func (r *Realtor) OnUsageCrossing(rising bool) {
	// Headroom and Usage advance the node's lazily drained queue, so
	// every discipline reads them exactly when and as often as its
	// algorithm says: a member of no community reads nothing.
	if r.dead || r.d.push < crossingPush || (r.d.push == communityPush && len(r.members) == 0) {
		return
	}
	headroom := r.env.Headroom()
	if rising {
		headroom = 0
	}
	if r.d.push == crossingPush {
		r.env.Flood(protocol.Message{Kind: protocol.Advert, From: r.env.Self(), Headroom: headroom})
		return
	}
	// The members slice is maintained sorted by organizer ID at
	// membership-update time, so the unicasts go out in ascending
	// organizer order — the deterministic order the engine's loss-RNG
	// draws depend on — with no per-crossing sort or allocation.
	r.purgeMemberships(r.env.Now())
	for _, m := range r.members {
		r.env.Unicast(m.org, protocol.Message{
			Kind:        protocol.Pledge,
			From:        r.env.Self(),
			Headroom:    headroom,
			Communities: len(r.members),
			Grant:       r.grantProbability(),
		})
	}
}

// purgeMemberships drops expired memberships, compacting in place (the
// ascending-organizer order is preserved). A membership is valid for the
// half-open window [join, join+MembershipTTL): at exactly its expiry
// instant it is already dead and receives no further pledges — the same
// strict boundary PledgeList.expire applies to pledge entries (DESIGN.md
// §8; pinned by TestMembershipExpiryBoundaryIsHalfOpen).
func (r *Realtor) purgeMemberships(now sim.Time) {
	k := 0
	for _, m := range r.members {
		if m.expiry > now {
			r.members[k] = m
			k++
		}
	}
	r.members = r.members[:k]
}

// findMembership returns the index of org's membership in the sorted
// slice, or the insertion point with found=false.
func (r *Realtor) findMembership(org topology.NodeID) (int, bool) {
	lo, hi := 0, len(r.members)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.members[mid].org < org {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(r.members) && r.members[lo].org == org
}

// setMembership records (or refreshes) a membership, keeping the slice
// sorted by organizer ID.
func (r *Realtor) setMembership(org topology.NodeID, expiry sim.Time) {
	r.mlog.Note(org)
	i, ok := r.findMembership(org)
	if ok {
		r.members[i].expiry = expiry
		return
	}
	r.members = append(r.members, membership{})
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = membership{org: org, expiry: expiry}
}

// mayJoin reports whether this node may (re-)join org's community at
// time now: it always may refresh an existing live membership, and it may
// take a new one only below the membership cap. Expired memberships are
// purged first so they do not hold slots.
func (r *Realtor) mayJoin(org topology.NodeID, now sim.Time) bool {
	r.purgeMemberships(now)
	if _, ok := r.findMembership(org); ok {
		return true
	}
	return r.cfg.MaxMemberships == 0 || len(r.members) < r.cfg.MaxMemberships
}

// grantProbability estimates the chance this node admits a request: with
// guaranteed-rate scheduling, admission is a utilization test, so spare
// occupancy is the natural estimate carried in the PLEDGE's
// "probabilities of resource grant" field.
func (r *Realtor) grantProbability() float64 {
	return 1 - r.env.Usage()
}

// Deliver handles incoming HELP (the pull disciplines' reply rule),
// PLEDGE (organizer list update, resetting Algorithm H's response timer)
// and ADVERT (list update).
func (r *Realtor) Deliver(m protocol.Message) {
	if r.dead {
		return
	}
	now := r.env.Now()
	switch m.Kind {
	case protocol.Help:
		// Algorithm P: reply iff local usage is below the threshold.
		// REALTOR's reply additionally (re-)joins the sender's community
		// when a membership slot is free — joining is what subscribes
		// the organizer to this node's future crossing pledges, and the
		// cap is what keeps the per-node interaction set a small subset
		// of the system rather than all of it.
		if r.d.pull == noPull || r.env.Usage() >= r.cfg.Threshold {
			return
		}
		reply := protocol.Message{Kind: protocol.Pledge, From: r.env.Self(), Headroom: r.env.Headroom()}
		if r.d.push == communityPush {
			if r.mayJoin(m.From, now) {
				r.setMembership(m.From, now+r.cfg.MembershipTTL)
			}
			reply.Communities, reply.Grant = len(r.members), r.grantProbability()
		}
		r.env.Unicast(m.From, reply)
	case protocol.Pledge:
		r.list.Update(now, m.From, m.Headroom)
		if r.d.pull == governedPull && r.timer != nil {
			r.arm(r.cfg.PledgeWait) // reset: pledges are still flowing
		}
	case protocol.Advert:
		r.list.Update(now, m.From, m.Headroom)
	}
}

// Candidates returns the organizer's availability list, best first,
// restricted to entries that fit the task.
func (r *Realtor) Candidates(size float64) []protocol.Candidate {
	if r.dead {
		return nil
	}
	snap := r.list.Snapshot(r.env.Now())
	out := snap[:0]
	for _, c := range snap {
		if c.Headroom >= size {
			out = append(out, c)
		}
	}
	return out
}

// OnMigrationOutcome keeps the availability list honest — a successful
// migration debits the destination's recorded headroom; a failed try
// drops the stale entry so the next request tries someone else — and
// feeds Algorithm H's reward: a success is "a node found for migration".
func (r *Realtor) OnMigrationOutcome(target topology.NodeID, size float64, success bool) {
	if !success {
		r.list.Remove(target)
		return
	}
	r.list.Debit(target, size)
	if r.d.pull != governedPull || r.cfg.Beta == 0 {
		return // fixed-window mode (Pull-100) or no governor
	}
	if shrunk := r.interval - r.interval*sim.Time(r.cfg.Beta); shrunk >= r.cfg.HelpMin {
		r.interval = shrunk
		r.rewards++
	}
}

// OnNodeDeath drops all soft state. By design nothing needs flushing —
// the protocol is stateless across restarts, which is what makes it
// idempotent under attack.
func (r *Realtor) OnNodeDeath() {
	r.dead = true
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	r.members = r.members[:0]
	r.list = protocol.NewPledgeList(r.cfg.EntryTTL)
}

// Memberships returns how many communities this node currently belongs
// to (expired entries excluded), for tests and introspection.
func (r *Realtor) Memberships() int {
	now := sim.Time(0)
	if r.env != nil {
		now = r.env.Now()
	}
	r.purgeMemberships(now)
	return len(r.members)
}

// Config returns the parameter set this instance runs with, so external
// invariant checkers can evaluate the protocol against its own spec.
func (r *Realtor) Config() protocol.Config { return r.cfg }

// HelpIntervalState returns the live Algorithm H adaptation state —
// current HELP_interval and the penalty/reward counters — in one call,
// so invariant checkers can assert the multiplicative bounds (the slow
// reference implementation in internal/check exposes the same tuple).
// Without governed pull the interval stays at HelpInit.
func (r *Realtor) HelpIntervalState() (interval sim.Time, penalties, rewards uint64) {
	return r.interval, r.penalties, r.rewards
}

// HelpGoverned reports whether HELP emission is rate-limited by
// Algorithm H — true for REALTOR and Pull-100, false for Pull-.9 (which
// floods on every qualifying arrival) and for the push-only baselines.
func (r *Realtor) HelpGoverned() bool { return r.d.pull == governedPull }

// EachPledge iterates the organizer-side availability list read-only:
// fn sees every stored entry (including ones aged past the TTL that have
// not been compacted yet) in better() order. No expiry, no allocation —
// safe for an oracle to call at arbitrary instants without perturbing
// protocol state. Returning false stops the iteration.
func (r *Realtor) EachPledge(fn func(protocol.Candidate) bool) {
	r.list.Each(fn)
}

// EachMembership iterates the member-side community state read-only, in
// ascending organizer order, including memberships whose expiry has
// passed but which have not been purged yet. Same non-perturbing
// contract as EachPledge.
func (r *Realtor) EachMembership(fn func(org topology.NodeID, expiry sim.Time) bool) {
	for _, m := range r.members {
		if !fn(m.org, m.expiry) {
			return
		}
	}
}

// Pledge returns the organizer-side entry for id, if stored, without
// expiry — the point lookup behind EachPledge.
func (r *Realtor) Pledge(id topology.NodeID) (protocol.Candidate, bool) {
	return r.list.Get(id)
}

// Membership returns the stored expiry of the membership in org's
// community, if any, without purging — the point lookup behind
// EachMembership.
func (r *Realtor) Membership(org topology.NodeID) (expiry sim.Time, ok bool) {
	if i, found := r.findMembership(org); found {
		return r.members[i].expiry, true
	}
	return 0, false
}

// PledgeLog returns the availability list's write log (see
// protocol.WriteLog), so an invariant checker can re-audit only the
// entries written since it last looked.
func (r *Realtor) PledgeLog() *protocol.WriteLog { return r.list.Log() }

// MembershipLog returns the write log of the member-side community
// table: every join and refresh is noted in it.
func (r *Realtor) MembershipLog() *protocol.WriteLog { return &r.mlog }

// CommunitySize returns how many live members this node's own community
// currently has (its availability list), for introspection and the
// community-statistics experiment.
func (r *Realtor) CommunitySize() int {
	if r.env == nil {
		return 0
	}
	return r.list.Len(r.env.Now())
}
