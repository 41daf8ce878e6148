package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"realtor/internal/sim"
	"realtor/internal/topology"
)

func TestBufferRecordsAndCopies(t *testing.T) {
	var b Buffer
	b.Record(Event{At: 1, Kind: Arrival, Node: 3, Peer: -1, Size: 5})
	b.Record(Event{At: 2, Kind: Reject, Node: 3, Peer: -1})
	evs := b.Events()
	if len(evs) != 2 || b.Total() != 2 {
		t.Fatalf("events %d total %d", len(evs), b.Total())
	}
	evs[0].Kind = NodeKill // mutating the copy must not leak back
	if b.Events()[0].Kind != Arrival {
		t.Fatal("Events returned aliased storage")
	}
}

func TestBufferCapEvictsOldest(t *testing.T) {
	b := Buffer{Cap: 4}
	for i := 0; i < 10; i++ {
		b.Record(Event{At: sim.Time(i), Kind: Arrival, Node: topology.NodeID(i)})
	}
	evs := b.Events()
	if len(evs) > 4 {
		t.Fatalf("retained %d > cap 4", len(evs))
	}
	if b.Total() != 10 {
		t.Fatalf("total %d", b.Total())
	}
	if evs[len(evs)-1].Node != 9 {
		t.Fatal("newest event evicted instead of oldest")
	}
}

func TestOfKind(t *testing.T) {
	var b Buffer
	b.Record(Event{Kind: Arrival})
	b.Record(Event{Kind: Reject})
	b.Record(Event{Kind: Arrival})
	if got := len(b.OfKind(Arrival)); got != 2 {
		t.Fatalf("arrivals %d", got)
	}
	if got := len(b.OfKind(NodeKill)); got != 0 {
		t.Fatalf("kills %d", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	in := Event{At: 3.5, Kind: MigrateOK, Node: 2, Peer: 7, Size: 4.25, Info: "x"}
	j.Record(in)
	if j.Err() != nil {
		t.Fatal(j.Err())
	}
	var out Event
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(failWriter{})
	j.Record(Event{Kind: Arrival})
	if j.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	j.Record(Event{Kind: Arrival}) // must not panic or reset the error
	if j.Err() == nil {
		t.Fatal("sticky error cleared")
	}
}

func TestFilter(t *testing.T) {
	var a Buffer
	rec := Filter{Next: &a, Allow: map[Kind]bool{Arrival: true}}
	rec.Record(Event{Kind: Arrival})
	rec.Record(Event{Kind: Reject})
	if a.Total() != 1 {
		t.Fatalf("filtered recorder got %d", a.Total())
	}
}

func TestEventString(t *testing.T) {
	s := Event{At: 1.5, Kind: MigrateOK, Node: 2, Peer: 7, Size: 3, Info: "yes"}.String()
	for _, want := range []string{"migrate-ok", "n2", "n7", "size=3.00", "yes"} {
		if !strings.Contains(s, want) {
			t.Fatalf("string %q missing %q", s, want)
		}
	}
	s2 := Event{At: 1, Kind: CrossUp, Node: 4, Peer: -1}.String()
	if strings.Contains(s2, "→") {
		t.Fatalf("peerless event rendered a peer: %q", s2)
	}
}
