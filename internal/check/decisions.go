// DecisionLog captures a run's externally observable behaviour — every
// trace event plus every scheduled message send with its full payload —
// as a flat comparable sequence. The differential layer replays one
// scenario through the fast pooled implementation and the slow
// Reference and requires the two logs to be identical, element for
// element: same decisions, same instants, same message contents, same
// order.
package check

import (
	"fmt"

	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// Decision is one comparable behaviour sample. Exactly one of the two
// sources fills it: a trace event (Trace != "") or an observed send
// (Send != 0 kind marker via Sent=true).
type Decision struct {
	At   sim.Time
	Node topology.NodeID
	Peer topology.NodeID

	// Trace-event fields.
	Trace trace.Kind
	Size  float64
	Info  string

	// Send-observation fields.
	Sent        bool
	MsgKind     protocol.Kind
	Headroom    float64
	Members     int
	Demand      float64
	Communities int
	Grant       float64
}

func (d Decision) String() string {
	if d.Sent {
		return fmt.Sprintf("t=%.6f send %s n%d→n%d h=%.9g members=%d demand=%.9g comm=%d grant=%.9g",
			float64(d.At), d.MsgKind, d.Node, d.Peer,
			d.Headroom, d.Members, d.Demand, d.Communities, d.Grant)
	}
	return fmt.Sprintf("t=%.6f %s n%d peer=%d size=%.9g %s",
		float64(d.At), d.Trace, d.Node, d.Peer, d.Size, d.Info)
}

// DecisionLog accumulates decisions. Plug it into a Hooks forwarder's
// Trace and Observer fields (or directly into engine.Config).
type DecisionLog struct {
	ds []Decision
}

var _ trace.Recorder = (*DecisionLog)(nil)
var _ trace.MessageObserver = (*DecisionLog)(nil)

// Record implements trace.Recorder.
func (l *DecisionLog) Record(ev trace.Event) {
	l.ds = append(l.ds, Decision{
		At: ev.At, Node: ev.Node, Peer: ev.Peer,
		Trace: ev.Kind, Size: ev.Size, Info: ev.Info,
	})
}

// OnSend implements trace.MessageObserver.
func (l *DecisionLog) OnSend(now sim.Time, from, to topology.NodeID, m protocol.Message) {
	l.ds = append(l.ds, Decision{
		At: now, Node: from, Peer: to, Sent: true,
		MsgKind: m.Kind, Headroom: m.Headroom, Members: m.Members,
		Demand: m.Demand, Communities: m.Communities, Grant: m.Grant,
	})
}

// OnDeliver implements trace.MessageObserver. Deliveries are a deterministic
// function of sends (latency and in-flight deaths), so logging them
// would double the memory for no extra discrimination; skip.
func (l *DecisionLog) OnDeliver(sim.Time, topology.NodeID, protocol.Message) {}

// OnDrop implements trace.MessageObserver. Drops are deterministic given the
// seed (partition reachability, loss RNG draws, death schedule), so a
// fast/reference divergence in drop behaviour is a real divergence.
func (l *DecisionLog) OnDrop(now sim.Time, from, to topology.NodeID, m protocol.Message, reason string) {
	l.ds = append(l.ds, Decision{
		At: now, Node: from, Peer: to, Sent: true, Info: reason,
		MsgKind: m.Kind, Headroom: m.Headroom, Members: m.Members,
		Demand: m.Demand, Communities: m.Communities, Grant: m.Grant,
	})
}

// OnInject implements trace.MessageObserver.
func (l *DecisionLog) OnInject(now sim.Time, node topology.NodeID, size float64) {
	l.ds = append(l.ds, Decision{
		At: now, Node: node, Peer: -1, Size: size, Info: "inject",
	})
}

// Len returns the number of recorded decisions.
func (l *DecisionLog) Len() int { return len(l.ds) }

// CompareLogs returns the index and description of the first
// divergence between two logs, or (-1, "") when identical.
func CompareLogs(fast, ref *DecisionLog) (int, string) {
	n := len(fast.ds)
	if len(ref.ds) < n {
		n = len(ref.ds)
	}
	for i := 0; i < n; i++ {
		if fast.ds[i] != ref.ds[i] {
			return i, fmt.Sprintf("decision %d differs:\n  fast: %s\n  ref:  %s",
				i, fast.ds[i], ref.ds[i])
		}
	}
	if len(fast.ds) != len(ref.ds) {
		i := n
		longer, tag := fast, "fast"
		if len(ref.ds) > len(fast.ds) {
			longer, tag = ref, "ref"
		}
		return i, fmt.Sprintf("log lengths differ (fast %d, ref %d); first extra %s decision: %s",
			len(fast.ds), len(ref.ds), tag, longer.ds[i])
	}
	return -1, ""
}
