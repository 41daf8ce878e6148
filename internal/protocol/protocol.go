// Package protocol defines the resource-discovery framework shared by
// REALTOR and the four baseline protocols of the paper: the HELP/PLEDGE
// message vocabulary, soft-state pledge lists, the cost model of Section 5
// (flood = number of links, unicast = mean shortest-path length), and the
// Discovery interface through which the simulation engine drives a
// protocol instance on each node.
package protocol

import (
	"fmt"
	"math"

	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Kind enumerates the protocol message types.
type Kind int

// Message kinds. HELP and PLEDGE are the community protocol of Section 4;
// ADVERT is the unsolicited availability broadcast used by the push
// baselines; RELAY is the inter-group HELP escalation of the federation
// and hierarchical extensions (the paper's Section 7 future work);
// GOSSIP is the push-pull anti-entropy exchange of the modern comparator
// in protocol/gossip. The DHT* kinds are the structured-overlay traffic
// of protocol/dht: directory writes (PUT), key lookups (GET) and lookup
// answers (FOUND), each routed hop by hop over the real topology.
const (
	Help Kind = iota
	Pledge
	Advert
	Relay
	Gossip
	DHTPut
	DHTGet
	DHTFound
	numKinds // sentinel: one past the last declared kind
)

// String returns the wire name of the kind.
func (k Kind) String() string {
	switch k {
	case Help:
		return "HELP"
	case Pledge:
		return "PLEDGE"
	case Advert:
		return "ADVERT"
	case Relay:
		return "RELAY"
	case Gossip:
		return "GOSSIP"
	case DHTPut:
		return "DHT-PUT"
	case DHTGet:
		return "DHT-GET"
	case DHTFound:
		return "DHT-FOUND"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// floodPrefix[reissue] opens the trace text of a flood.
var floodPrefix = [2]string{"flood-", "reflood-"}

// floodInfos[reissue][kind] is that text in full, built once: every
// flood is traced, and on an untraced run (the figure sweeps) the text
// must cost nothing.
var floodInfos = func() (t [2][numKinds]string) {
	for r, prefix := range floodPrefix {
		for k := Kind(0); k < numKinds; k++ {
			t[r][k] = prefix + k.String()
		}
	}
	return t
}()

// FloodInfo returns the trace.Event Info every backend stamps on a
// flood's msg-send event: "flood-<KIND>", or "reflood-<KIND>" for a
// policy-layer reissue (Message.Reissue) so rate invariants on original
// emissions (I1, I9) skip it while the retry ledger (I11) counts it.
func FloodInfo(k Kind, reissue bool) string {
	r := 0
	if reissue {
		r = 1
	}
	if k < 0 || k >= numKinds {
		return floodPrefix[r] + k.String()
	}
	return floodInfos[r][k]
}

// Message is a discovery protocol datagram. Field use per kind follows
// the formats in Section 4:
//
//	HELP:   From (community organizer), Members, Demand (urgency).
//	PLEDGE: From (pledger), Headroom (resource availability "degree"),
//	        Communities (memberships held), Grant (probability of granting
//	        the resource when asked).
//	ADVERT: From, Headroom.
type Message struct {
	Kind        Kind
	From        topology.NodeID
	Headroom    float64     // seconds of queue space the sender can offer
	Members     int         // HELP: current community size
	Demand      float64     // HELP: degree of demand (seconds wanted)
	Communities int         // PLEDGE: communities the pledger belongs to
	Grant       float64     // PLEDGE: probability of granting when asked
	Reply       bool        // GOSSIP: this exchange answers a previous one
	View        []Candidate // GOSSIP/DHT-FOUND: batched availability entries

	// Overlay routing fields. Key is the identifier-ring key a DHT
	// message is routed toward; Origin is the node that initiated the
	// overlay operation (where a FOUND answer must return); Hop counts
	// overlay forwarding steps so routing loops die at a TTL; Level is
	// the escalation tree level a hierarchical RELAY targets.
	Key    uint64
	Origin topology.NodeID
	Hop    int
	Level  int

	// Reissue marks a policy-layer retry of an earlier flood; backends
	// trace it distinctly (see FloodInfo).
	Reissue bool
}

// Candidate is one entry of a node's availability list: a host believed
// able to receive a migrating task.
type Candidate struct {
	ID       topology.NodeID
	Headroom float64  // advertised spare capacity in seconds
	At       sim.Time // when the information was produced
}

// PledgeList is the soft-state availability table an organizer maintains
// from PLEDGE/ADVERT messages. Entries expire TTL seconds after their
// timestamp — "the membership of a node in a community is valid only for
// the interval between two consecutive refresh messages". Validity is the
// half-open interval [At, At+TTL): an entry whose age equals the TTL
// exactly is already expired (DESIGN.md §8; pinned by
// TestPledgeListExpiryBoundaryIsHalfOpen).
//
// Representation: a dense slice kept permanently in better() order (best
// candidate first) by incremental insertion, rather than a map. Community
// sizes are small (tens of entries), so ordered insertion is cheap, Best
// becomes a head peek, and Snapshot becomes a copy into a reused scratch
// buffer — no per-call map iteration, sorting, or allocation on the
// simulator's hot path.
type PledgeList struct {
	ttl     sim.Time
	entries []Candidate // live entries, better()-sorted, best first
	scratch []Candidate // reusable Snapshot buffer
}

// NewPledgeList returns an empty list whose entries live for ttl seconds.
func NewPledgeList(ttl sim.Time) *PledgeList {
	if ttl <= 0 {
		panic("protocol: pledge list TTL must be positive")
	}
	return &PledgeList{ttl: ttl}
}

// find returns the index of id's entry, or -1.
func (l *PledgeList) find(id topology.NodeID) int {
	for i := range l.entries {
		if l.entries[i].ID == id {
			return i
		}
	}
	return -1
}

// removeAt deletes the entry at index i preserving order.
func (l *PledgeList) removeAt(i int) {
	copy(l.entries[i:], l.entries[i+1:])
	l.entries = l.entries[:len(l.entries)-1]
}

// rank returns the index in entries[lo:hi] — a better()-sorted span —
// before which c belongs. The order is total (IDs are unique), so the
// rank is unique and iteration order, and with it every downstream RNG
// draw, is identical to sorting a fresh snapshot.
func (l *PledgeList) rank(c Candidate, lo, hi int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if better(c, l.entries[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insert places c at its better()-rank.
func (l *PledgeList) insert(c Candidate) {
	lo := l.rank(c, 0, len(l.entries))
	l.entries = append(l.entries, Candidate{})
	copy(l.entries[lo+1:], l.entries[lo:])
	l.entries[lo] = c
}

// replaceAt overwrites the entry at index i with c (same ID, new
// headroom or timestamp) and moves it to c's better()-rank, shifting
// only the entries between the two positions — the same final order as
// removeAt(i) followed by insert(c), for one copy over a shorter span.
func (l *PledgeList) replaceAt(i int, c Candidate) {
	if i > 0 && better(c, l.entries[i-1]) {
		j := l.rank(c, 0, i-1)
		copy(l.entries[j+1:i+1], l.entries[j:i])
		l.entries[j] = c
		return
	}
	j := l.rank(c, i+1, len(l.entries)) - 1
	copy(l.entries[i:j], l.entries[i+1:j+1])
	l.entries[j] = c
}

// Update records availability info from a node. A non-positive headroom
// is a retraction ("I am busy") and removes the entry — Algorithm P
// pledges on both directions of a threshold crossing precisely so that
// organizers can drop saturated members quickly.
func (l *PledgeList) Update(now sim.Time, from topology.NodeID, headroom float64) {
	l.UpdateAt(now, from, headroom)
}

// UpdateAt is Update with an explicit information timestamp — gossip
// merges must preserve the origin time of relayed entries, or stale
// third-hand data would masquerade as fresh.
func (l *PledgeList) UpdateAt(at sim.Time, from topology.NodeID, headroom float64) {
	i := l.find(from)
	if headroom <= 0 {
		if i >= 0 {
			l.removeAt(i)
		}
		return
	}
	c := Candidate{ID: from, Headroom: headroom, At: at}
	if i >= 0 {
		l.replaceAt(i, c)
	} else {
		l.insert(c)
	}
}

// Remove deletes an entry outright (e.g. after a failed migration try).
func (l *PledgeList) Remove(id topology.NodeID) {
	if i := l.find(id); i >= 0 {
		l.removeAt(i)
	}
}

// Debit reduces an entry's recorded headroom by size (after sending a
// task there) so repeated migrations don't herd onto one host. The entry
// is dropped when it no longer advertises positive headroom.
func (l *PledgeList) Debit(id topology.NodeID, size float64) {
	i := l.find(id)
	if i < 0 {
		return
	}
	c := l.entries[i]
	c.Headroom -= size
	if c.Headroom <= 0 {
		l.removeAt(i)
		return
	}
	l.replaceAt(i, c)
}

// Get returns the entry for id, if present and regardless of freshness.
func (l *PledgeList) Get(id topology.NodeID) (Candidate, bool) {
	if i := l.find(id); i >= 0 {
		return l.entries[i], true
	}
	return Candidate{}, false
}

// TTL returns the soft-state lifetime entries were created with.
func (l *PledgeList) TTL() sim.Time { return l.ttl }

// Each calls fn for every stored entry in better() order, including
// entries that have aged past the TTL but have not yet been compacted.
// Unlike Len/Best/Snapshot it performs NO expiry and NO allocation, so
// external invariant checkers can inspect the list without perturbing
// it. fn must not retain the candidate slice; returning false stops the
// iteration.
func (l *PledgeList) Each(fn func(Candidate) bool) {
	for _, c := range l.entries {
		if !fn(c) {
			return
		}
	}
}

// expire drops entries whose age has reached the TTL, compacting in
// place (order is preserved — expiry is by At, independent of rank).
// The comparison is strict: an entry is live while now-At < TTL and
// expired at exactly now-At == TTL, matching the half-open validity
// window documented on PledgeList.
func (l *PledgeList) expire(now sim.Time) {
	k := 0
	for _, c := range l.entries {
		if now-c.At < l.ttl {
			l.entries[k] = c
			k++
		}
	}
	l.entries = l.entries[:k]
}

// Len returns the number of live entries at time now.
func (l *PledgeList) Len(now sim.Time) int {
	l.expire(now)
	return len(l.entries)
}

// Best returns the live candidate with the most advertised headroom that
// could fit a task of the given size, breaking ties by freshness then by
// lowest ID (for determinism). ok is false if no candidate fits: the head
// of the ordered list has the maximum headroom, so either it fits — and
// is the better()-best fitting entry — or nothing does.
func (l *PledgeList) Best(now sim.Time, size float64) (Candidate, bool) {
	l.expire(now)
	if len(l.entries) > 0 && l.entries[0].Headroom >= size {
		return l.entries[0], true
	}
	return Candidate{}, false
}

func better(a, b Candidate) bool {
	if a.Headroom != b.Headroom {
		return a.Headroom > b.Headroom
	}
	if a.At != b.At {
		return a.At > b.At
	}
	return a.ID < b.ID
}

// Snapshot returns the live candidates sorted best-first. The engine uses
// it when the protocol must hand over "a list of hosts" (Section 3).
//
// The returned slice is a scratch buffer owned by the list: it is valid
// until the next Snapshot call and may be filtered in place by the
// caller, but must not be retained. (Every protocol instance is
// single-threaded, per the Discovery contract.)
func (l *PledgeList) Snapshot(now sim.Time) []Candidate {
	l.expire(now)
	l.scratch = append(l.scratch[:0], l.entries...)
	return l.scratch
}

// CostModel converts protocol actions into the paper's message units:
// "the number of messages for resource information advertisement to the
// network is counted as the number of links ... while PLEDGE takes the
// average number of shortest paths, which is 4 in this particular
// topology".
type CostModel struct {
	FloodUnits   float64 // one HELP or ADVERT flood
	UnicastUnits float64 // one PLEDGE (or other unicast)
	ControlUnits float64 // one admission-control negotiation (2 unicasts)
}

// NewCostModel derives the unit costs from a topology.
func NewCostModel(g *topology.Graph) CostModel {
	u := math.Ceil(g.MeanPathLength())
	if u < 1 {
		u = 1
	}
	return CostModel{
		FloodUnits:   float64(g.Links()),
		UnicastUnits: u,
		ControlUnits: 2 * u,
	}
}

// Timer is a cancellable scheduled callback handed out by Env.After.
type Timer interface {
	Stop()
}

// ResettableTimer is an optional Timer extension: Reset re-arms the same
// timer d seconds from now with its original callback, letting protocols
// that re-arm on every event (Algorithm H's response timer, the push
// baselines' advertisement tick) reuse one timer object instead of
// allocating a fresh one per arming. Protocols must type-assert and fall
// back to Stop+After when the Env's timers don't support it.
type ResettableTimer interface {
	Timer
	Reset(d sim.Time) bool
}

// Env is the node-local execution environment the engine provides to a
// Discovery instance: identity, clock, local resource state, messaging,
// and timers. Message sends are charged to the run's cost accounting by
// the engine, not by protocols.
type Env interface {
	// Self returns this node's ID.
	Self() topology.NodeID
	// Now returns the current simulated time.
	Now() sim.Time
	// Usage returns local queue occupancy in [0, 1].
	Usage() float64
	// Headroom returns local spare queue capacity in seconds.
	Headroom() float64
	// Capacity returns the local queue capacity in seconds.
	Capacity() float64
	// Flood delivers m to every other alive node, with per-hop latency.
	Flood(m Message)
	// Unicast delivers m to a single node, with per-hop latency.
	Unicast(to topology.NodeID, m Message)
	// After schedules fn to run d seconds from now on this node. The
	// callback is suppressed if the node dies first.
	After(d sim.Time, fn func()) Timer
}

// CapacityScaler is an optional Env extension: backends whose node
// capacity can change mid-run (the sim engine, the live Agile runtime)
// implement it so the elastic-capacity policy can resize the local
// queue. SetCapacity returns false when the backend rejects the resize
// (non-positive target, or the Env does not support scaling); the new
// capacity is clamped so the current backlog still fits, keeping usage
// within [0, 1].
type CapacityScaler interface {
	SetCapacity(c float64) bool
}

// Discovery is a resource-discovery protocol instance running on one
// node. The engine calls these hooks; implementations must be
// single-threaded (the simulator is sequential) and must not retain the
// Env beyond the run.
type Discovery interface {
	// Name identifies the protocol in tables ("REALTOR-100", "Push-1", ...).
	Name() string
	// Attach binds the instance to its node environment before the run.
	Attach(env Env)
	// OnArrival is called for every task arriving locally, before the
	// admission decision, with the task's size in seconds. Pull-family
	// protocols use it to trigger HELP per Algorithm H.
	OnArrival(size float64)
	// OnUsageCrossing is called when local usage crosses the protocol's
	// threshold: rising=true when it goes above, false when it drains
	// below. Push-family protocols and REALTOR members advertise here.
	OnUsageCrossing(rising bool)
	// Deliver hands the instance an incoming message.
	Deliver(m Message)
	// Candidates returns destinations believed able to take a task of
	// the given size, best first. The engine tries at most the first.
	Candidates(size float64) []Candidate
	// OnMigrationOutcome reports the result of the single migration try
	// that followed Candidates: the destination tried, the task size, and
	// whether the destination admitted it. Implementations use it to
	// debit or drop the candidate's entry.
	OnMigrationOutcome(target topology.NodeID, size float64, success bool)
	// OnNodeDeath is called when the local node is killed, so the
	// instance can drop timers and soft state. Revived nodes get a fresh
	// Attach.
	OnNodeDeath()
}

// Config carries the tunables shared across protocol implementations,
// with the defaults of the paper's Section 5 experiments.
type Config struct {
	Threshold     float64  // usage threshold for Algorithms H and P (0.9)
	PushInterval  sim.Time // pure-push advertisement period (1 s)
	HelpInit      sim.Time // initial HELP_interval (1 s)
	HelpUpper     sim.Time // Upper_limit for HELP_interval (100 s)
	HelpMin       sim.Time // numeric floor for HELP_interval
	Alpha         float64  // HELP_interval penalty factor (0.5)
	Beta          float64  // HELP_interval reward factor (0.5)
	PledgeWait    sim.Time // Algorithm H response timer (1 s)
	EntryTTL      sim.Time // pledge-list soft-state lifetime (100 s)
	MembershipTTL sim.Time // community membership lifetime (100 s)

	// MaxMemberships caps how many communities a host joins — "each host
	// is free to join as many communities as it is able to without
	// over-allocating its spare resources" (Section 4); the cap is what
	// keeps every node interacting with only a small subset of others.
	// 0 means unlimited.
	MaxMemberships int
}

// DefaultConfig returns the parameter set used throughout the paper's
// evaluation (Section 5 figure captions) with our pinned choices for the
// constants it leaves open (DESIGN.md Section 4).
func DefaultConfig() Config {
	return Config{
		Threshold:      0.9,
		PushInterval:   1,
		HelpInit:       1,
		HelpUpper:      100,
		HelpMin:        0.01,
		Alpha:          0.5,
		Beta:           0.5,
		PledgeWait:     1,
		EntryTTL:       100,
		MembershipTTL:  100,
		MaxMemberships: 12,
	}
}

// Validate reports the first out-of-range parameter, or nil.
func (c Config) Validate() error {
	switch {
	case c.Threshold <= 0 || c.Threshold > 1:
		return fmt.Errorf("protocol: threshold %v outside (0,1]", c.Threshold)
	case c.PushInterval <= 0:
		return fmt.Errorf("protocol: push interval %v must be positive", c.PushInterval)
	case c.HelpInit <= 0 || c.HelpUpper < c.HelpInit || c.HelpMin <= 0 || c.HelpMin > c.HelpInit:
		return fmt.Errorf("protocol: HELP interval bounds (init=%v upper=%v min=%v) inconsistent",
			c.HelpInit, c.HelpUpper, c.HelpMin)
	case c.Alpha < 0 || c.Beta < 0 || c.Beta >= 1:
		return fmt.Errorf("protocol: alpha=%v beta=%v out of range", c.Alpha, c.Beta)
	case c.PledgeWait <= 0 || c.EntryTTL <= 0 || c.MembershipTTL <= 0:
		return fmt.Errorf("protocol: timers must be positive")
	case c.MaxMemberships < 0:
		return fmt.Errorf("protocol: negative membership cap")
	}
	return nil
}
