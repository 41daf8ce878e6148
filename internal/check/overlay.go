// Overlay-routing generalizations of the provenance and conservation
// invariants (DESIGN.md §12). Structured overlays (protocol/dht) do not
// expose REALTOR's ProtocolState — they have no pledge lists,
// memberships, or HELP interval — so I1–I4 skip them. Instead they
// expose OverlayState, and the oracle audits:
//
//   - I4-overlay (provenance): every candidate a node caches must be
//     backed by a delivered DHT-FOUND view entry (or a delivered
//     DHT-PUT, for a home node serving its own directory), with
//     headroom never above what was delivered; every directory entry a
//     home stores must be backed by a delivered DHT-PUT from that
//     provider; and every FOUND answer may only carry entries some
//     provider PUT to the answering home.
//   - I5-overlay (forwarding conservation): a node may forward an
//     overlay message (send with Hop > 0) only in response to a routed
//     delivery, and each delivery causes at most one onward overlay
//     send — so per node, forwards never exceed routed deliveries.
//     Originations carry Hop == 0 and are exempt.
//
// The records keep the *maximum* headroom ever delivered per (node,
// subject) pair: an upper bound that survives entry overwrites and
// answers that were in flight across a newer PUT, so the check is sound
// without remembering every historical message.
package check

import (
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// OverlayState is the read-only window a structured-overlay Discovery
// implementation exposes for the oracle to audit it (protocol/dht.D
// satisfies it; protocols that don't are skipped).
type OverlayState interface {
	// EachOverlayCandidate visits the node's cached candidates (the
	// entries Candidates serves from).
	EachOverlayCandidate(fn func(c protocol.Candidate))
	// EachDirectoryEntry visits the directory entries the node is home
	// for.
	EachDirectoryEntry(fn func(band int, c protocol.Candidate))
}

// overlayAudit is the oracle's overlay bookkeeping.
type overlayAudit struct {
	// maxFound[node][cand] is the highest headroom any delivered FOUND
	// view entry advertised for cand at node; maxPut[home][provider]
	// likewise for delivered PUTs.
	maxFound pairTable[float64]
	maxPut   pairTable[float64]

	// delivered counts routed overlay deliveries (GET/PUT) per node;
	// forwarded counts overlay sends with Hop > 0.
	delivered []uint64
	forwarded []uint64
}

func newOverlayAudit(n int) overlayAudit {
	return overlayAudit{
		maxFound:  make(pairTable[float64], n),
		maxPut:    make(pairTable[float64], n),
		delivered: make([]uint64, n),
		forwarded: make([]uint64, n),
	}
}

// overlayState returns node id's OverlayState, or nil.
func (o *Oracle) overlayState(id topology.NodeID) OverlayState {
	if s, ok := o.w.Discovery(id).(OverlayState); ok {
		return s
	}
	return nil
}

// overlaySend observes one overlay send (called from OnSend): I5-overlay
// fails the moment a node has forwarded more routed messages than were
// ever delivered to it.
func (o *Oracle) overlaySend(now sim.Time, from topology.NodeID, m protocol.Message) {
	switch m.Kind {
	case protocol.DHTGet, protocol.DHTPut:
	default:
		return
	}
	if m.Hop <= 0 {
		return // origination, not a forward
	}
	o.ov.forwarded[from]++
	if o.ov.forwarded[from] > o.ov.delivered[from] {
		o.fail(now, "I5-overlay", from,
			"forwarded %d overlay messages but only %d were delivered to it",
			o.ov.forwarded[from], o.ov.delivered[from])
	}
}

// overlayDeliver observes one overlay delivery (called from OnDeliver,
// before Discovery.Deliver mutates state): audits the receiver's
// pre-delivery overlay state, checks a FOUND answer's own provenance,
// then records the delivery.
func (o *Oracle) overlayDeliver(now sim.Time, to topology.NodeID, m protocol.Message) {
	switch m.Kind {
	case protocol.DHTPut:
		o.auditOverlay(now, to)
		o.ov.delivered[to]++
		if m.Headroom > o.ov.maxPut[to][m.Origin] {
			o.ov.maxPut.put(to, m.Origin, m.Headroom)
		}
	case protocol.DHTGet:
		o.ov.delivered[to]++
	case protocol.DHTFound:
		o.auditOverlay(now, to)
		for _, c := range m.View {
			// Answer-side provenance: the home may only serve entries
			// that were PUT to it. Its own availability is locally
			// justified (a self-home publishes without a message).
			if c.ID != m.From {
				rec, ok := o.ov.maxPut[m.From][c.ID]
				switch {
				case !ok:
					o.fail(now, "I4-overlay", m.From,
						"FOUND answer carries candidate %d with no delivered PUT at the answering home", c.ID)
				case c.Headroom > rec+eps:
					o.fail(now, "I4-overlay", m.From,
						"FOUND answer advertises node %d headroom %.6g > delivered %.6g",
						c.ID, c.Headroom, rec)
				}
			}
			if c.Headroom > o.ov.maxFound[to][c.ID] {
				o.ov.maxFound.put(to, c.ID, c.Headroom)
			}
		}
	}
}

// auditOverlay asserts I4-overlay on node id's current soft state.
// A cached candidate may be justified by a delivered FOUND view entry
// or — when id answered its own lookup from the directory it is home
// for — by the provider's delivered PUT. A directory entry must be
// justified by a delivered PUT, except the home's own self-published
// availability.
func (o *Oracle) auditOverlay(now sim.Time, id topology.NodeID) {
	s := o.overlayState(id)
	if s == nil {
		return
	}
	s.EachOverlayCandidate(func(c protocol.Candidate) {
		if c.ID == id {
			return
		}
		bound, ok := o.ov.maxFound[id][c.ID]
		if b2, ok2 := o.ov.maxPut[id][c.ID]; ok2 && (!ok || b2 > bound) {
			bound, ok = b2, true
		}
		switch {
		case !ok:
			o.fail(now, "I4-overlay", id,
				"cached candidate %d with no delivered FOUND or PUT behind it", c.ID)
		case c.Headroom > bound+eps:
			o.fail(now, "I4-overlay", id,
				"cached candidate %d advertises headroom %.6g > delivered %.6g",
				c.ID, c.Headroom, bound)
		}
	})
	s.EachDirectoryEntry(func(band int, c protocol.Candidate) {
		if c.ID == id {
			return // self-published, no message involved
		}
		rec, ok := o.ov.maxPut[id][c.ID]
		switch {
		case !ok:
			o.fail(now, "I4-overlay", id,
				"band-%d directory entry for node %d with no delivered PUT behind it", band, c.ID)
		case c.Headroom > rec+eps:
			o.fail(now, "I4-overlay", id,
				"band-%d directory entry for node %d advertises headroom %.6g > delivered %.6g",
				band, c.ID, c.Headroom, rec)
		}
	})
}

// finishOverlayNode runs the end-of-run overlay audits for one node.
func (o *Oracle) finishOverlayNode(now sim.Time, id topology.NodeID) {
	o.auditOverlay(now, id)
	if o.ov.forwarded[id] > o.ov.delivered[id] {
		o.fail(now, "I5-overlay", id,
			"forwarded %d overlay messages but only %d were delivered to it",
			o.ov.forwarded[id], o.ov.delivered[id])
	}
}
