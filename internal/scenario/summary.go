package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"realtor/internal/metrics"
	"realtor/internal/trace"
)

// Digest accumulates an order-insensitive fingerprint of a run's trace:
// the mod-2⁶⁴ sum of each event's FNV-1a hash, plus the event count.
// Order insensitivity is load-bearing — the sharded sim backend fires
// hooks inline from shard workers, so event ORDER varies with the shard
// count while event CONTENT is byte-identical; summing per-event hashes
// makes the digest a function of the multiset, which the kernel does
// promise. The hashed per-event text is a specification goldens pin
// (DESIGN.md §8.5), not an implementation detail.
//
// It implements trace.Recorder. Record renders numbers into buffers the
// Digest owns and reuses, so a Digest MUST be driven by one goroutine at
// a time — the check.Hooks mutex on sharded and live backends; it has
// no locking of its own. The zero Digest is ready to use.
type Digest struct {
	sum uint64
	n   uint64

	// Most consecutive events share their instant, and many their size
	// (a HELP delivery and the PLEDGE it triggers, an arrival and its
	// admission), and shortest-float formatting is the dearest step of
	// the rendering — so the last of each is remembered: for At, which
	// opens the text, as the hash state after "At|"; for Size as text.
	at     floatText
	atHash uint64
	size   floatText
	num    []byte // scratch for one rendered integer
}

var _ trace.Recorder = (*Digest)(nil)

// floatText remembers the %g text (shortest that round-trips) of the
// last float it rendered. Keyed by bit pattern: 0 and −0 compare equal
// but render differently.
type floatText struct {
	bits uint64
	txt  []byte // nil until first use
}

// of returns f's text and whether it had to be rendered anew.
func (m *floatText) of(f float64) (txt []byte, fresh bool) {
	if b := math.Float64bits(f); m.txt == nil || b != m.bits {
		m.bits, m.txt = b, strconv.AppendFloat(m.txt[:0], f, 'g', -1, 64)
		return m.txt, true
	}
	return m.txt, false
}

// FNV-1a, 64 bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into the running hash h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvSep(h uint64) uint64 { return (h ^ '|') * fnvPrime64 }

// Record implements trace.Recorder: it folds the FNV-1a 64 hash of the
// event's canonical text
//
//	At|Kind|Node|Peer|Size|Info
//
// into the sum — floats in shortest round-trip %g form, integers in
// decimal, strings verbatim; exactly the bytes
// fmt.Sprintf("%g|%s|%d|%d|%g|%s", …) yields (pinned against that
// reference by TestDigestMatchesFmtReference).
func (d *Digest) Record(ev trace.Event) {
	if at, fresh := d.at.of(float64(ev.At)); fresh {
		d.atHash = fnvSep(fnv1a(fnvOffset64, at))
	}
	h := fnvSep(fnv1a(d.atHash, string(ev.Kind)))
	d.num = strconv.AppendInt(d.num[:0], int64(ev.Node), 10)
	h = fnvSep(fnv1a(h, d.num))
	d.num = strconv.AppendInt(d.num[:0], int64(ev.Peer), 10)
	h = fnvSep(fnv1a(h, d.num))
	size, _ := d.size.of(ev.Size)
	h = fnvSep(fnv1a(h, size))
	d.sum += fnv1a(h, ev.Info)
	d.n++
}

// Sum returns the digest as 16 hex digits.
func (d *Digest) Sum() string { return fmt.Sprintf("%016x", d.sum) }

// Events returns how many events were folded in.
func (d *Digest) Events() uint64 { return d.n }

// Summary is the canonical single-run record a golden pins: the
// paper-facing aggregates plus the trace digest. On the deterministic
// simulator every field is bit-reproducible at any shard count; on the
// live backend only the band checks consume it.
type Summary struct {
	Offered      uint64  `json:"offered"`
	Admitted     uint64  `json:"admitted"`
	Rejected     uint64  `json:"rejected"`
	Migrated     uint64  `json:"migrated"`
	HelpMsgs     uint64  `json:"help_msgs"`
	PledgeMsgs   uint64  `json:"pledge_msgs"`
	AdvertMsgs   uint64  `json:"advert_msgs"`
	ControlMsgs  uint64  `json:"control_msgs"`
	MessageUnits float64 `json:"message_units"`
	AdmissionPct float64 `json:"admission_pct"`
	UnitsPerTask float64 `json:"units_per_task"`
	RejectPct    float64 `json:"reject_pct"`
	TraceEvents  uint64  `json:"trace_events"`
	TraceDigest  string  `json:"trace_digest"`
}

// EncodeSummary renders a summary in its canonical machine-readable
// byte form: compact JSON, the 14 fields in declaration order, one
// trailing newline. `realtor-scen run -json` and the daemon's
// run-history store both emit exactly these bytes — sharing the encoder
// is what keeps a daemon-side record byte-comparable to a local run
// (pinned by TestEncodeSummaryCanonicalForm).
func EncodeSummary(s Summary) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // Summary has no unmarshalable fields
	}
	return append(b, '\n')
}

// NewSummary folds run stats and the trace digest into the canonical
// record.
func NewSummary(st metrics.RunStats, d *Digest) Summary {
	rejectPct := 0.0
	if st.Offered > 0 {
		rejectPct = 100 * float64(st.Rejected) / float64(st.Offered)
	}
	return Summary{
		Offered:      st.Offered,
		Admitted:     st.Admitted,
		Rejected:     st.Rejected,
		Migrated:     st.Migrated,
		HelpMsgs:     st.HelpMsgs,
		PledgeMsgs:   st.PledgeMsgs,
		AdvertMsgs:   st.AdvertMsgs,
		ControlMsgs:  st.ControlMsgs,
		MessageUnits: st.MessageUnits,
		AdmissionPct: 100 * st.AdmissionProbability(),
		UnitsPerTask: st.CostPerAdmitted(),
		RejectPct:    rejectPct,
		TraceEvents:  d.Events(),
		TraceDigest:  d.Sum(),
	}
}
