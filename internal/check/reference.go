// The slow reference implementation of REALTOR used by the
// differential layer: Algorithms H and P transcribed as literally as
// possible from the paper's Figures 2 and 3 over naive map-based state,
// with none of the performance machinery of internal/core (no sorted
// dense slices, no pooled scratch buffers, no cached method values).
//
// The fuzz harness replays every scenario through both implementations
// and requires bit-identical decision sequences, so the reference must
// be *behaviorally* exact:
//
//   - Every externally visible action (Flood, Unicast, After/Reset) is
//     performed in the same order and at the same instant as
//     internal/core — the engine's loss-RNG draws are consumed per
//     scheduled delivery in send order, so even a reordering of two
//     same-time unicasts would diverge the run.
//   - Float arithmetic uses the same expressions (e.g. the interval
//     penalty is `interval + interval*alpha`, not `interval*(1+alpha)`,
//     which rounds differently).
//   - Timer re-arming performs one Cancel plus one schedule per arming
//     (Reset when available, Stop+After otherwise), consuming identical
//     scheduler sequence numbers.
package check

import (
	"sort"

	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Reference is the slow-but-obvious REALTOR twin.
type Reference struct {
	cfg  protocol.Config
	env  protocol.Env
	dead bool

	// Algorithm H (adaptive PULL) state.
	interval  sim.Time
	lastSent  sim.Time
	sentAny   bool
	timer     protocol.Timer
	helps     uint64
	penalties uint64
	rewards   uint64

	// Organizer side: availability map, member → entry.
	entries map[topology.NodeID]protocol.Candidate

	// Member side: organizer → membership expiry.
	members map[topology.NodeID]sim.Time
}

var _ protocol.Discovery = (*Reference)(nil)
var _ ProtocolState = (*Reference)(nil)

// NewReference returns a reference instance with the given parameters.
func NewReference(cfg protocol.Config) *Reference {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Reference{
		cfg:      cfg,
		interval: cfg.HelpInit,
		entries:  make(map[topology.NodeID]protocol.Candidate),
		members:  make(map[topology.NodeID]sim.Time),
	}
}

// Name implements protocol.Discovery.
func (r *Reference) Name() string { return "REALTOR-ref" }

// Attach implements protocol.Discovery.
func (r *Reference) Attach(env protocol.Env) { r.env = env }

// wouldExceed is Algorithm H's trigger, with the exact float expression
// of core.Realtor's pull trigger.
func (r *Reference) wouldExceed(size float64) bool {
	backlog := r.env.Capacity() - r.env.Headroom()
	return backlog+size > r.cfg.Threshold*r.env.Capacity()
}

// OnArrival implements protocol.Discovery: Figure 2's arrival rule —
// flood HELP iff the new task would push usage over the threshold and
// at least HELP_interval has elapsed since the last HELP.
func (r *Reference) OnArrival(size float64) {
	if r.dead {
		return
	}
	if !r.wouldExceed(size) {
		return
	}
	now := r.env.Now()
	if r.sentAny && now-r.lastSent <= r.interval {
		return
	}
	r.env.Flood(protocol.Message{
		Kind:    protocol.Help,
		From:    r.env.Self(),
		Members: r.liveEntries(now),
		Demand:  size,
	})
	r.lastSent = now
	r.sentAny = true
	r.helps++
	r.armTimer()
}

// liveEntries counts unexpired availability entries — the Members field
// of a HELP. Same half-open window as PledgeList.Len, without compacting
// (the map path has no scratch state to reclaim).
func (r *Reference) liveEntries(now sim.Time) int {
	n := 0
	for _, c := range r.entries {
		if now-c.At < r.cfg.EntryTTL {
			n++
		}
	}
	return n
}

// armTimer (re)arms the pledge-response timer with the same scheduler
// operation sequence as core.Realtor.arm: one Cancel plus one
// schedule per arming.
func (r *Reference) armTimer() {
	if r.timer != nil {
		if rt, ok := r.timer.(protocol.ResettableTimer); ok && rt.Reset(r.cfg.PledgeWait) {
			return
		}
		r.timer.Stop()
	}
	r.timer = r.env.After(r.cfg.PledgeWait, r.onTimeout)
}

// onTimeout applies Figure 2's penalty: HELP_interval grows by alpha,
// capped at Upper_limit.
func (r *Reference) onTimeout() {
	r.timer = nil
	if r.cfg.Alpha == 0 {
		return
	}
	grown := r.interval + r.interval*sim.Time(r.cfg.Alpha)
	if grown <= r.cfg.HelpUpper {
		r.interval = grown
		r.penalties++
	} else if r.interval < r.cfg.HelpUpper {
		r.interval = r.cfg.HelpUpper
		r.penalties++
	}
}

// onResourceFound applies Figure 2's reward: HELP_interval shrinks by
// beta, floored at HelpMin.
func (r *Reference) onResourceFound() {
	if r.cfg.Beta == 0 {
		return
	}
	shrunk := r.interval - r.interval*sim.Time(r.cfg.Beta)
	if shrunk >= r.cfg.HelpMin {
		r.interval = shrunk
		r.rewards++
	}
}

// OnUsageCrossing implements protocol.Discovery: Figure 3's member
// rule — pledge to every live community on each threshold crossing,
// retracting (headroom 0) on the way up. Unicasts go out in ascending
// organizer order, matching core's sorted-slice iteration.
func (r *Reference) OnUsageCrossing(rising bool) {
	if r.dead || len(r.members) == 0 {
		return
	}
	now := r.env.Now()
	headroom := r.env.Headroom()
	if rising {
		headroom = 0
	}
	r.purgeMemberships(now)
	for _, org := range r.sortedOrganizers() {
		r.env.Unicast(org, protocol.Message{
			Kind:        protocol.Pledge,
			From:        r.env.Self(),
			Headroom:    headroom,
			Communities: len(r.members),
			Grant:       r.grantProbability(),
		})
	}
}

// purgeMemberships drops memberships at or past their expiry — the
// half-open [join, join+TTL) window of DESIGN.md §8.
func (r *Reference) purgeMemberships(now sim.Time) {
	for org, expiry := range r.members {
		if expiry <= now {
			delete(r.members, org)
		}
	}
}

// sortedOrganizers returns the current community organizers ascending.
func (r *Reference) sortedOrganizers() []topology.NodeID {
	orgs := make([]topology.NodeID, 0, len(r.members))
	for org := range r.members {
		orgs = append(orgs, org)
	}
	sort.Slice(orgs, func(i, j int) bool { return orgs[i] < orgs[j] })
	return orgs
}

// mayJoin mirrors core's membership-cap rule: refreshing an existing
// live membership is always allowed; a new one only below the cap.
func (r *Reference) mayJoin(org topology.NodeID, now sim.Time) bool {
	r.purgeMemberships(now)
	if _, ok := r.members[org]; ok {
		return true
	}
	return r.cfg.MaxMemberships == 0 || len(r.members) < r.cfg.MaxMemberships
}

func (r *Reference) grantProbability() float64 {
	return 1 - r.env.Usage()
}

// Deliver implements protocol.Discovery.
func (r *Reference) Deliver(m protocol.Message) {
	if r.dead {
		return
	}
	now := r.env.Now()
	switch m.Kind {
	case protocol.Help:
		if r.env.Usage() < r.cfg.Threshold {
			if r.mayJoin(m.From, now) {
				r.members[m.From] = now + r.cfg.MembershipTTL
			}
			r.env.Unicast(m.From, protocol.Message{
				Kind:        protocol.Pledge,
				From:        r.env.Self(),
				Headroom:    r.env.Headroom(),
				Communities: len(r.members),
				Grant:       r.grantProbability(),
			})
		}
	case protocol.Pledge:
		r.update(now, m.From, m.Headroom)
		if r.timer != nil {
			r.armTimer() // pledges still flowing: hold the penalty off
		}
	case protocol.Advert:
		r.update(now, m.From, m.Headroom)
	}
}

// update applies PledgeList.Update semantics on the map: non-positive
// headroom retracts, positive replaces with a fresh timestamp.
func (r *Reference) update(now sim.Time, from topology.NodeID, headroom float64) {
	if headroom <= 0 {
		delete(r.entries, from)
		return
	}
	r.entries[from] = protocol.Candidate{ID: from, Headroom: headroom, At: now}
}

// better is the candidate ranking of protocol.PledgeList: headroom
// desc, then freshness desc, then ID asc. Transcribed (not imported) so
// the reference stays independent of the fast structure's internals.
func better(a, b protocol.Candidate) bool {
	if a.Headroom != b.Headroom {
		return a.Headroom > b.Headroom
	}
	if a.At != b.At {
		return a.At > b.At
	}
	return a.ID < b.ID
}

// Candidates implements protocol.Discovery: live entries that fit the
// task, best first, sorted from scratch on every call.
func (r *Reference) Candidates(size float64) []protocol.Candidate {
	if r.dead {
		return nil
	}
	now := r.env.Now()
	var out []protocol.Candidate
	for id, c := range r.entries {
		if now-c.At >= r.cfg.EntryTTL {
			delete(r.entries, id) // lazy expiry, like Snapshot's compaction
			continue
		}
		if c.Headroom >= size {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	return out
}

// OnMigrationOutcome implements protocol.Discovery: success debits the
// destination entry and rewards Algorithm H; failure drops the entry.
func (r *Reference) OnMigrationOutcome(target topology.NodeID, size float64, success bool) {
	if success {
		if c, ok := r.entries[target]; ok {
			c.Headroom -= size
			if c.Headroom <= 0 {
				delete(r.entries, target)
			} else {
				r.entries[target] = c // timestamp preserved: a debit is not a refresh
			}
		}
		r.onResourceFound()
	} else {
		delete(r.entries, target)
	}
}

// OnNodeDeath implements protocol.Discovery: drop all soft state.
func (r *Reference) OnNodeDeath() {
	r.dead = true
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	r.entries = make(map[topology.NodeID]protocol.Candidate)
	r.members = make(map[topology.NodeID]sim.Time)
}

// Config implements ProtocolState.
func (r *Reference) Config() protocol.Config { return r.cfg }

// EachPledge implements ProtocolState: stored entries in better()
// order, no expiry, no mutation.
func (r *Reference) EachPledge(fn func(protocol.Candidate) bool) {
	out := make([]protocol.Candidate, 0, len(r.entries))
	for _, c := range r.entries {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	for _, c := range out {
		if !fn(c) {
			return
		}
	}
}

// EachMembership implements ProtocolState: memberships ascending by
// organizer, no purge, no mutation.
func (r *Reference) EachMembership(fn func(org topology.NodeID, expiry sim.Time) bool) {
	for _, org := range r.sortedOrganizers() {
		if !fn(org, r.members[org]) {
			return
		}
	}
}

// Pledge implements ProtocolState.
func (r *Reference) Pledge(id topology.NodeID) (protocol.Candidate, bool) {
	c, ok := r.entries[id]
	return c, ok
}

// Membership implements ProtocolState.
func (r *Reference) Membership(org topology.NodeID) (sim.Time, bool) {
	expiry, ok := r.members[org]
	return expiry, ok
}

// PledgeLog implements ProtocolState: the reference keeps no write log,
// so the oracle audits its tables by the full walk every time.
func (r *Reference) PledgeLog() *protocol.WriteLog { return nil }

// MembershipLog implements ProtocolState: no log, as for PledgeLog.
func (r *Reference) MembershipLog() *protocol.WriteLog { return nil }

// HelpIntervalState implements ProtocolState.
func (r *Reference) HelpIntervalState() (sim.Time, uint64, uint64) {
	return r.interval, r.penalties, r.rewards
}

// HelpGoverned implements ProtocolState: the reference runs Algorithm H.
func (r *Reference) HelpGoverned() bool { return true }
