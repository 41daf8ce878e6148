// Mutants: deliberately broken protocol variants used to prove the
// oracle has teeth. A verification harness that never fires is
// indistinguishable from one that checks nothing, so the test suite
// (and the fuzz CLI's -mutant mode) runs these seeded bugs and demands
// that the oracle catches them.
package check

import (
	"sort"

	"realtor/internal/core"
	"realtor/internal/protocol"
	"realtor/internal/topology"
)

// StaleRealtor wraps core.Realtor with soft-state expiry broken: it
// remembers every pledge it ever received in a side table that never
// expires, and when the honest protocol has no live candidate it serves
// a stale one — exactly the bug class the paper's refresh-window rule
// exists to prevent ("the membership of a node in a community is valid
// only for the interval between two consecutive refresh messages").
// The oracle's I3 freshness check flags the first migration try that
// uses such an entry. The zero value around any core.Realtor discipline
// is ready to use (&StaleRealtor{Realtor: core.NewAdaptivePull(cfg)}).
type StaleRealtor struct {
	*core.Realtor
	env  protocol.Env
	seen map[topology.NodeID]protocol.Candidate
}

var _ protocol.Discovery = (*StaleRealtor)(nil)
var _ ProtocolState = (*StaleRealtor)(nil)

// NewStaleRealtor returns the expiry-breaking mutant over REALTOR.
func NewStaleRealtor(cfg protocol.Config) *StaleRealtor {
	return &StaleRealtor{Realtor: core.New(cfg)}
}

// Attach implements protocol.Discovery.
func (s *StaleRealtor) Attach(env protocol.Env) {
	s.env = env
	s.Realtor.Attach(env)
}

// Deliver shadows every availability push into the immortal side table,
// then behaves honestly.
func (s *StaleRealtor) Deliver(m protocol.Message) {
	if m.Kind == protocol.Pledge || m.Kind == protocol.Advert {
		if s.seen == nil {
			s.seen = make(map[topology.NodeID]protocol.Candidate)
		}
		if m.Headroom > 0 {
			s.seen[m.From] = protocol.Candidate{ID: m.From, Headroom: m.Headroom, At: s.env.Now()}
		} else {
			delete(s.seen, m.From)
		}
	}
	s.Realtor.Deliver(m)
}

// Candidates is the bug: when the honest list is empty it falls back to
// the never-expiring side table, serving pledges arbitrarily past their
// refresh window.
func (s *StaleRealtor) Candidates(size float64) []protocol.Candidate {
	if out := s.Realtor.Candidates(size); len(out) > 0 {
		return out
	}
	var out []protocol.Candidate
	for _, c := range s.seen {
		if c.Headroom >= size {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	return out
}
