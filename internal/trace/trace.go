// Package trace records structured simulation events — arrivals,
// admissions, migrations, protocol messages, threshold crossings, node
// churn — so protocol behaviour can be inspected, asserted on in tests,
// and dumped as JSON Lines for external tooling. Tracing is optional and
// off by default; the engine emits events only when a Recorder is
// configured.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Kind labels an event.
type Kind string

// The event vocabulary the engine emits.
const (
	Arrival     Kind = "arrival"      // task arrived at Node (Size)
	AdmitLocal  Kind = "admit-local"  // task admitted where it arrived
	MigrateTry  Kind = "migrate-try"  // one-try migration Node→Peer (Size)
	MigrateOK   Kind = "migrate-ok"   // destination accepted
	MigrateFail Kind = "migrate-fail" // destination was full
	Reject      Kind = "reject"       // task dropped (no candidate or failed try)
	MsgSend     Kind = "msg-send"     // protocol message Node→Peer (Info = kind)
	CrossUp     Kind = "cross-up"     // usage rose above the threshold
	CrossDown   Kind = "cross-down"   // usage drained below the threshold
	NodeKill    Kind = "node-kill"
	NodeRevive  Kind = "node-revive"
	LinkCut     Kind = "link-cut"     // overlay link Node—Peer severed
	LinkRestore Kind = "link-restore" // overlay link Node—Peer healed
	MsgDrop     Kind = "msg-drop"     // delivery dropped in flight (Info = cause)
)

// Event is one recorded occurrence. Peer is -1 when not applicable.
type Event struct {
	At   sim.Time        `json:"at"`
	Kind Kind            `json:"kind"`
	Node topology.NodeID `json:"node"`
	Peer topology.NodeID `json:"peer,omitempty"`
	Size float64         `json:"size,omitempty"`
	Info string          `json:"info,omitempty"`
}

// String renders an event compactly for logs.
func (e Event) String() string {
	s := fmt.Sprintf("%10.3f %-13s n%d", float64(e.At), e.Kind, e.Node)
	if e.Peer >= 0 && e.Peer != e.Node {
		s += fmt.Sprintf("→n%d", e.Peer)
	}
	if e.Size > 0 {
		s += fmt.Sprintf(" size=%.2f", e.Size)
	}
	if e.Info != "" {
		s += " " + e.Info
	}
	return s
}

// Recorder consumes events. Implementations must tolerate concurrent use
// only if they are shared across goroutines (the simulator is
// sequential; the live runtime is not).
type Recorder interface {
	Record(Event)
}

// Buffer keeps the last Cap events in memory (unbounded when Cap ≤ 0).
// It is safe for concurrent use.
type Buffer struct {
	Cap int

	mu     sync.Mutex
	events []Event
	total  uint64
}

// Record implements Recorder.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.total++
	b.events = append(b.events, e)
	if b.Cap > 0 && len(b.events) > b.Cap {
		// Drop the oldest half in one move to amortize the copy.
		drop := len(b.events) - b.Cap
		b.events = append(b.events[:0], b.events[drop:]...)
	}
}

// Events returns a copy of the retained events.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// Total returns how many events were recorded (including evicted ones).
func (b *Buffer) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// OfKind returns the retained events of one kind.
func (b *Buffer) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// JSONL streams each event as one JSON line. Errors are sticky: the
// first write failure stops further output and is reported by Err.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSON Lines recorder writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, enc: json.NewEncoder(w)}
}

// Record implements Recorder.
func (j *JSONL) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(e)
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Filter forwards only events whose kind is in the allow set.
type Filter struct {
	Next  Recorder
	Allow map[Kind]bool
}

// Record implements Recorder.
func (f Filter) Record(e Event) {
	if f.Allow[e.Kind] {
		f.Next.Record(e)
	}
}
