package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// refDigest is the digest's specification in executable form: the
// format string every committed golden was blessed under. Production
// code must reproduce it byte for byte; it lives here only.
type refDigest struct {
	sum, n uint64
}

func (d *refDigest) Record(ev trace.Event) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%g|%s|%d|%d|%g|%s",
		float64(ev.At), ev.Kind, ev.Node, ev.Peer, ev.Size, ev.Info)
	d.sum += h.Sum64()
	d.n++
}

func (d *refDigest) Sum() string { return fmt.Sprintf("%016x", d.sum) }

// edgeFloats are the values where %g changes shape: zero and its sign,
// integers, both switch-overs to exponent form (decimal exponent < -4
// and ≥ 6; 10²¹ is where %v and JSON switch, and must not matter), the
// subnormal and overflow ends of the range, and the non-numbers.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, 0.1, 1.0 / 3, 2.5e-3,
	1e-4, 1e-5, 9.999e-5, 99999, 100000, 999999.5, 1e6, 1234567,
	1e20, 1e21, 1.5e21, 123456789012345678901234,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, -2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), // a NaN with payload
}

// Record must hash exactly the reference's bytes for every shape a
// field can take, in isolation and inside a stream (where the At and
// Size memos are live).
func TestDigestMatchesFmtReference(t *testing.T) {
	var events []trace.Event
	for _, f := range edgeFloats {
		events = append(events,
			trace.Event{At: sim.Time(f), Kind: trace.Arrival, Node: 3, Peer: -1, Size: 1.25},
			trace.Event{At: 7.5, Kind: trace.MigrateTry, Node: 0, Peer: 24, Size: f},
		)
	}
	for _, id := range []topology.NodeID{-1, 0, 9, 10, 65535, 65536, 99999, 100000, math.MaxInt32, math.MinInt64, math.MaxInt64} {
		events = append(events,
			trace.Event{At: 1, Kind: trace.MsgSend, Node: id, Peer: -1, Info: "flood-HELP"},
			trace.Event{At: 1, Kind: trace.LinkCut, Node: 0, Peer: id},
		)
	}
	for _, info := range []string{"", "flood-HELP", "a|b", "|", "ünï→códe ✓", "\x00\xff", "loss"} {
		events = append(events,
			trace.Event{At: 2, Kind: trace.MsgDrop, Node: 1, Peer: 2, Info: info},
			trace.Event{At: 2, Kind: trace.Kind(info), Node: 1, Peer: 2},
		)
	}
	// The memos: a value repeated, changed, revisited, and the two zeros
	// back to back (equal as floats, different as text) — in At with
	// Size fixed, then in Size with At fixed.
	for _, f := range []float64{3.25, 3.25, 3.25, 3.5, 3.25, 0, math.Copysign(0, -1), 0, 0, math.NaN(), math.NaN(), 1e21, 1e21} {
		events = append(events, trace.Event{At: sim.Time(f), Kind: trace.AdmitLocal, Node: 5, Peer: -1, Size: 0.75})
	}
	for _, f := range []float64{3.25, 3.25, 3.25, 3.5, 3.25, 0, math.Copysign(0, -1), 0, 0, math.NaN(), math.NaN(), 1e21, 1e21} {
		events = append(events, trace.Event{At: 9, Kind: trace.Arrival, Node: 5, Peer: -1, Size: f})
	}

	stream, ref := &Digest{}, &refDigest{}
	for i, ev := range events {
		one, oneRef := &Digest{}, &refDigest{}
		one.Record(ev)
		oneRef.Record(ev)
		if one.Sum() != oneRef.Sum() {
			t.Errorf("event %d %+v alone: digest %s, reference %s", i, ev, one.Sum(), oneRef.Sum())
		}
		stream.Record(ev)
		ref.Record(ev)
		if stream.Sum() != ref.Sum() {
			t.Fatalf("event %d %+v in stream: digest %s, reference %s", i, ev, stream.Sum(), ref.Sum())
		}
	}
	if stream.Events() != uint64(len(events)) || stream.Events() != ref.n {
		t.Fatalf("Events() = %d, want %d", stream.Events(), len(events))
	}
	if z := (&Digest{}); z.Sum() != "0000000000000000" || z.Events() != 0 {
		t.Fatalf("zero Digest reads %s/%d", z.Sum(), z.Events())
	}
}

// FuzzDigestMatchesReference drives two consecutive events (so the
// second may or may not hit the At memo) built from raw float bits and
// arbitrary strings through both implementations.
func FuzzDigestMatchesReference(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), int64(0), int64(-1), "arrival", "")
	f.Add(math.Float64bits(12.5), math.Float64bits(12.5), math.Float64bits(0.3), int64(17), int64(4), "msg-send", "flood-HELP")
	f.Add(uint64(1)<<63, uint64(0), math.Float64bits(1e21), int64(math.MaxInt64), int64(math.MinInt64), "ü", "→|")
	f.Add(math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), uint64(1), int64(65535), int64(100000), "", "\xff")
	f.Fuzz(func(t *testing.T, at1, at2, size uint64, node, peer int64, kind, info string) {
		evs := []trace.Event{
			{At: sim.Time(math.Float64frombits(at1)), Kind: trace.Kind(kind), Node: topology.NodeID(node),
				Peer: topology.NodeID(peer), Size: math.Float64frombits(size), Info: info},
			{At: sim.Time(math.Float64frombits(at2)), Kind: trace.Kind(info), Node: topology.NodeID(peer),
				Peer: topology.NodeID(node), Size: math.Float64frombits(at1), Info: kind},
		}
		d, ref := &Digest{}, &refDigest{}
		for _, ev := range evs {
			d.Record(ev)
			ref.Record(ev)
		}
		if d.Sum() != ref.Sum() || d.Events() != ref.n {
			t.Fatalf("digest %s/%d, reference %s/%d for %+v", d.Sum(), d.Events(), ref.Sum(), ref.n, evs)
		}
	})
}

// captureTrace runs a committed package once and returns it with its
// events.
func captureTrace(tb testing.TB, name string) (*Package, []trace.Event) {
	tb.Helper()
	p, err := LoadPackage(scenRoot + "/" + name)
	if err != nil {
		tb.Fatal(err)
	}
	s := p.Spec.Effective()
	buf := &trace.Buffer{}
	if _, err := harness.RunCheckedOpts(harness.Sim(), s, fuzzscen.Builder(s),
		harness.RunOptions{Trace: buf}); err != nil {
		tb.Fatal(err)
	}
	return p, buf.Events()
}

// A real trace digests to the golden's value through both
// implementations, and once its buffers exist Record never allocates —
// not on a memo hit, not on a miss.
func TestDigestOnCapturedTraceMatchesGoldenWithoutAllocating(t *testing.T) {
	p, events := captureTrace(t, "baseline-poisson")
	d, ref := &Digest{}, &refDigest{}
	for _, ev := range events {
		d.Record(ev)
		ref.Record(ev)
	}
	if d.Sum() != ref.Sum() || d.Sum() != p.Golden.Summary.TraceDigest ||
		d.Events() != p.Golden.Summary.TraceEvents {
		t.Fatalf("digest %s/%d, reference %s, golden %s/%d", d.Sum(), d.Events(), ref.Sum(),
			p.Golden.Summary.TraceDigest, p.Golden.Summary.TraceEvents)
	}

	i := 0
	if avg := testing.AllocsPerRun(len(events), func() {
		d.Record(events[i%len(events)])
		i++
	}); avg != 0 {
		t.Fatalf("Record allocates %.2f times per event, want 0", avg)
	}
}

// BenchmarkDigestRecord reports the digest's cost per event on a
// captured baseline-poisson trace (the unit number behind the
// benchmark's scenario.digest_ns_per_event).
func BenchmarkDigestRecord(b *testing.B) {
	_, events := captureTrace(b, "baseline-poisson")
	b.ReportAllocs()
	b.ResetTimer()
	var d Digest
	for i := 0; i < b.N; i++ {
		for _, ev := range events {
			d.Record(ev)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	if d.Events() != uint64(b.N*len(events)) {
		b.Fatalf("folded %d events, want %d", d.Events(), b.N*len(events))
	}
}
