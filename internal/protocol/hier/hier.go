// Package hier implements hierarchical REALTOR: communities of
// community-organizers, the paper's Section 7 future work ("inter-
// neighbor-group resource discovery and allocation") as a k-level tree.
// Level-0 communities are contiguous node-ID blocks whose floods the
// engine scopes via Config.Groups; the organizer of any block is its
// lowest node ID. A node whose local community has no capacity
// escalates a RELAY up the tree — rate-limited by the same Upper_limit
// discipline as Algorithm H — and the receiving organizer fans the relay
// down to its child organizers, skipping the subtree the request came
// from (those communities were covered by the previous, narrower
// escalation). Level-0 organizers answer a relay by re-flooding HELP
// inside their own community with the origin as the asking organizer, so
// pledges travel straight back to the origin and no organizer holds
// state about the relay.
//
// Escalation widens adaptively: each escalation targets one level higher
// than the last (up to the root) until a migration succeeds, which
// resets the next escalation to level 1.
//
// One-level federation (the FED contender of the studies) is this tree
// at depth 1: Branch ≥ ⌈N/GroupSize⌉ puts every level-0 organizer under
// the root, so one escalation reaches every foreign community once.
package hier

import (
	"fmt"

	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Config tunes the hierarchy.
type Config struct {
	// Protocol parameterizes the per-community REALTOR instance.
	Protocol protocol.Config

	// N is the run's node count.
	N int

	// GroupSize is the level-0 community size (contiguous node-ID
	// blocks). 0 means 32.
	GroupSize int

	// Branch is how many child blocks each higher-level organizer
	// aggregates. 0 means 8; 1 is rejected (blocks would never grow).
	Branch int

	// EscalateEvery rate-limits upward escalation per node; 0 means
	// Protocol.HelpUpper, Algorithm H's own ceiling on the HELP interval.
	EscalateEvery sim.Time
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if err := c.Protocol.Validate(); err != nil {
		return err
	}
	if c.N < 1 {
		return fmt.Errorf("hier: need at least 1 node")
	}
	if c.GroupSize < 0 || c.Branch < 0 || c.EscalateEvery < 0 {
		return fmt.Errorf("hier: negative parameter")
	}
	if c.Branch == 1 {
		return fmt.Errorf("hier: branch 1 never widens a block")
	}
	return nil
}

func (c Config) groupSize() int {
	if c.GroupSize == 0 {
		return 32
	}
	return c.GroupSize
}

func (c Config) branch() int {
	if c.Branch == 0 {
		return 8
	}
	return c.Branch
}

func (c Config) escalateEvery() sim.Time {
	if c.EscalateEvery == 0 {
		return c.Protocol.HelpUpper
	}
	return c.EscalateEvery
}

// Tree is the static escalation hierarchy over contiguous node-ID
// blocks: level-0 blocks have groupSize nodes, and each level above
// aggregates branch blocks of the level below. Immutable, so instances
// share it freely.
type Tree struct {
	n, groupSize, branch int
	depth                int // highest meaningful level (0 when one block covers all)
}

// NewTree builds the hierarchy for n nodes.
func NewTree(n, groupSize, branch int) Tree {
	t := Tree{n: n, groupSize: groupSize, branch: branch}
	for t.BlockSize(t.depth) < n {
		t.depth++
	}
	return t
}

// Depth returns the root level: escalations target levels 1..Depth.
func (t Tree) Depth() int { return t.depth }

// BlockSize returns how many node IDs a level-l block spans.
func (t Tree) BlockSize(l int) int {
	s := t.groupSize
	for i := 0; i < l; i++ {
		s *= t.branch
	}
	return s
}

// OrganizerAt returns the organizer of node's level-l block: the lowest
// node ID in the block.
func (t Tree) OrganizerAt(node topology.NodeID, l int) topology.NodeID {
	bs := t.BlockSize(l)
	return topology.NodeID(int(node) / bs * bs)
}

// Children visits the child organizers of the level-l block that org
// leads (l ≥ 1): the first node of every level-(l-1) block inside it.
func (t Tree) Children(org topology.NodeID, l int, fn func(child topology.NodeID)) {
	start, end := int(org), int(org)+t.BlockSize(l)
	if end > t.n {
		end = t.n
	}
	for c := start; c < end; c += t.BlockSize(l - 1) {
		fn(topology.NodeID(c))
	}
}

// Groups returns the engine.Config.Groups assignment matching the
// tree's level-0 communities, so the engine scopes HELP floods to them.
func Groups(n, groupSize int) []int {
	if groupSize <= 0 {
		groupSize = Config{}.groupSize()
	}
	g := make([]int, n)
	for i := range g {
		g[i] = i / groupSize
	}
	return g
}

// Build validates cfg and returns a per-node constructor suitable for
// engine.Builder. Pair it with Groups(cfg.N, cfg.GroupSize) on the
// engine so level-0 floods stay inside their community.
func Build(cfg Config) func() protocol.Discovery {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	tree := NewTree(cfg.N, cfg.groupSize(), cfg.branch())
	return func() protocol.Discovery { return New(cfg, tree) }
}

// H is one node's hierarchical REALTOR instance: a plain per-community
// REALTOR plus the escalation machinery.
type H struct {
	cfg  Config
	tree Tree

	inner *core.Realtor
	env   protocol.Env

	lastEsc  sim.Time
	hasEsc   bool
	escLevel int // level the next escalation targets

	dead bool

	escalations, relayed uint64
}

var _ protocol.Discovery = (*H)(nil)

// New returns a node instance bound to the shared tree. Most callers
// want Build.
func New(cfg Config, tree Tree) *H {
	return &H{cfg: cfg, tree: tree, inner: core.New(cfg.Protocol), escLevel: 1}
}

// Name labels the protocol in tables and legends.
func (h *H) Name() string {
	return fmt.Sprintf("HIER-%d/%d", h.cfg.groupSize(), h.cfg.branch())
}

// Attach binds the environment for both layers.
func (h *H) Attach(env protocol.Env) {
	h.env = env
	h.inner.Attach(env)
}

// OnArrival forwards to the community REALTOR.
func (h *H) OnArrival(size float64) { h.inner.OnArrival(size) }

// OnUsageCrossing forwards to the community REALTOR.
func (h *H) OnUsageCrossing(rising bool) { h.inner.OnUsageCrossing(rising) }

// Deliver routes RELAY escalations and hands everything else to the
// community REALTOR.
func (h *H) Deliver(m protocol.Message) {
	if h.dead {
		return
	}
	if m.Kind != protocol.Relay {
		h.inner.Deliver(m)
		return
	}
	h.handleRelay(m)
}

// handleRelay serves an escalation addressed to this organizer: at
// level 0 it re-floods HELP inside its own community on the origin's
// behalf; above that it fans the relay down to its child organizers,
// skipping the child subtree the origin already covered.
func (h *H) handleRelay(m protocol.Message) {
	if m.Level <= 0 {
		h.relayed++
		h.env.Flood(protocol.Message{Kind: protocol.Help, From: m.From, Demand: m.Demand})
		return
	}
	skip := h.tree.OrganizerAt(m.Origin, m.Level-1)
	down := m
	down.Level = m.Level - 1
	h.tree.Children(h.env.Self(), m.Level, func(child topology.NodeID) {
		if child == skip {
			return
		}
		if child == h.env.Self() {
			h.handleRelay(down)
			return
		}
		h.env.Unicast(child, down)
	})
}

// Candidates serves from the community REALTOR's pledge list; an empty
// answer triggers a rate-limited escalation one level wider than the
// last.
func (h *H) Candidates(size float64) []protocol.Candidate {
	if h.dead {
		return nil
	}
	cands := h.inner.Candidates(size)
	if len(cands) == 0 {
		h.maybeEscalate(size)
	}
	return cands
}

func (h *H) maybeEscalate(size float64) {
	if h.tree.Depth() == 0 {
		return // one community covers everything; nothing above to ask
	}
	now := h.env.Now()
	// Suppress on <=, as Algorithm H spaces HELPs and I1 audits them.
	if h.hasEsc && now-h.lastEsc <= h.cfg.escalateEvery() {
		return
	}
	h.lastEsc, h.hasEsc = now, true
	l := h.escLevel
	if h.escLevel < h.tree.Depth() {
		h.escLevel++ // a failed escalation widens the next one
	}
	h.escalations++
	m := protocol.Message{
		Kind:   protocol.Relay,
		From:   h.env.Self(),
		Origin: h.env.Self(),
		Demand: size,
		Level:  l,
	}
	org := h.tree.OrganizerAt(h.env.Self(), l)
	if org == h.env.Self() {
		h.handleRelay(m)
		return
	}
	h.env.Unicast(org, m)
}

// OnMigrationOutcome forwards to the community REALTOR; success resets
// the escalation ladder.
func (h *H) OnMigrationOutcome(target topology.NodeID, size float64, success bool) {
	if success {
		h.escLevel = 1
	}
	h.inner.OnMigrationOutcome(target, size, success)
}

// OnNodeDeath stops both layers.
func (h *H) OnNodeDeath() {
	h.dead = true
	h.inner.OnNodeDeath()
}

// Escalations returns how many upward relays this node initiated.
func (h *H) Escalations() uint64 { return h.escalations }

// Relayed returns how many level-0 relays this organizer re-flooded.
func (h *H) Relayed() uint64 { return h.relayed }
