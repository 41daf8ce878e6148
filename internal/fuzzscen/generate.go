// Scenario generation: one seed → one Scenario, via a derived rng
// stream so generation is reproducible independently of everything else
// the seed drives (workload, engine, topology each get their own
// derived sub-seeds recorded in the struct).
package fuzzscen

import (
	"realtor/internal/rng"
)

// Generation ranges. TTLs are deliberately short relative to Duration
// (the paper's 100 s defaults would never expire inside a 20–60 s run,
// and an expiry path that never runs is an expiry path that never gets
// checked).
const (
	minDuration, maxDuration = 20, 60
	minTTL, maxTTL           = 4, 30
	maxEvents                = 4
)

// Generate derives a complete scenario from seed. Same seed, same
// scenario, bit for bit — the fuzz loop's only state is the seed
// counter.
func Generate(seed int64) Scenario {
	r := rng.New(seed).Derive("fuzzscen")
	s := Scenario{
		Seed:       seed,
		Duration:   r.Uniform(minDuration, maxDuration),
		HopDelay:   0.01,
		EngineSeed: seed*2 + 1,
		WorkSeed:   seed*2 + 2,
		TopoSeed:   seed*2 + 3,

		Threshold:      r.Uniform(0.5, 0.9),
		EntryTTL:       r.Uniform(minTTL, maxTTL),
		MembershipTTL:  r.Uniform(minTTL, maxTTL),
		MaxMemberships: 0, // unlimited unless drawn below
		Alpha:          r.Uniform(0.1, 1.0),
		Beta:           r.Uniform(0.1, 0.9),
		PledgeWait:     r.Uniform(0.3, 2),
		HelpInit:       r.Uniform(0.3, 2),

		QueueCapacity: r.Uniform(5, 25),
		MeanSize:      r.Uniform(0.5, 3),
	}
	if r.Bernoulli(0.8) {
		s.MaxMemberships = 2 + r.Intn(7)
	}

	switch r.Intn(4) {
	case 0:
		s.Topology, s.Rows, s.Cols = "mesh", 3+r.Intn(3), 3+r.Intn(3)
	case 1:
		s.Topology, s.Rows, s.Cols = "torus", 3+r.Intn(2), 3+r.Intn(2)
	case 2:
		s.Topology, s.N = "ring", 6+r.Intn(11)
	default:
		s.Topology, s.N = "random", 6+r.Intn(11)
		s.EdgeProb = r.Uniform(0.15, 0.35)
	}

	// Offered load rho in [0.4, 1.5] of aggregate capacity: overload is
	// where migration, rejection, and HELP adaptation all live.
	n := float64(s.Nodes())
	rho := r.Uniform(0.4, 1.5)
	s.Lambda = rho * n / s.MeanSize

	if r.Bernoulli(0.4) {
		s.LossProb = r.Uniform(0.05, 0.3)
	}
	if r.Bernoulli(0.3) {
		s.MaxTries = 1 + r.Intn(3)
	}
	if r.Bernoulli(0.25) {
		s.FloodRadius = 1 + r.Intn(3)
	}
	if r.Bernoulli(0.35) {
		skipRetiredPolicyDraws(r)
	}

	// The discovery protocol is drawn unconditionally (one Intn whether
	// or not an overlay lands) so the stream advances identically for
	// every scenario. Most scenarios keep flood-REALTOR — the
	// differential and the label-sensitive metamorphic relations only
	// run there — while about a third swap in an overlay to fuzz the
	// DHT, the hierarchy, and the hierarchy at depth 1 (one-level
	// federation) under the invariant oracle.
	switch r.Intn(8) {
	case 0:
		s.Discovery = "dht"
	case 1:
		s.Discovery = "hier"
	case 2:
		s.Discovery = "fed"
	}

	s.Events = generateEvents(r, s)
	return s
}

// retiredPolicyDraws lists, in order, the draws the generator of the
// retired traffic-protection middleware made: 0 for a Float64-backed
// draw (Bernoulli or Uniform), n for Intn(n).
var retiredPolicyDraws = [...]int{0, 0, 4, 0, 3, 0, 0, 3, 0, 3, 0, 0, 0, 0, 3, 0, 0, 0}

// skipRetiredPolicyDraws makes those draws and throws them away. The
// middleware is gone, but the 35 % of seeds that drew it must advance
// the stream exactly as before, so that every seed keeps its scenario,
// its pinned violation list and its mutant catch rate
// (TestGenerateStreamPinned).
func skipRetiredPolicyDraws(r *rng.Stream) {
	for _, n := range retiredPolicyDraws {
		if n == 0 {
			r.Float64()
		} else {
			r.Intn(n)
		}
	}
}

func generateEvents(r *rng.Stream, s Scenario) []Event {
	k := r.Intn(maxEvents + 1)
	if k == 0 {
		return nil
	}
	n := s.Nodes()
	links := s.Graph().LinkList()
	evs := make([]Event, 0, k)
	for i := 0; i < k; i++ {
		at := r.Uniform(1, s.Duration-2)
		switch ops[r.Intn(len(ops))] {
		case "kill":
			ev := Event{Op: "kill", At: at, Node: r.Intn(n)}
			if r.Bernoulli(0.5) {
				ev.Until = at + r.Uniform(2, 10)
			}
			evs = append(evs, ev)
		case "cut":
			if len(links) == 0 {
				continue
			}
			l := links[r.Intn(len(links))]
			ev := Event{Op: "cut", At: at, A: int(l[0]), B: int(l[1])}
			if r.Bernoulli(0.5) {
				ev.Until = at + r.Uniform(2, 10)
			}
			evs = append(evs, ev)
		case "flap":
			evs = append(evs, Event{
				Op: "flap", At: at, Until: at + r.Uniform(4, 15),
				Node: r.Intn(n),
				Down: r.Uniform(0.5, 3), Up: r.Uniform(0.5, 3),
			})
		case "exhaust":
			evs = append(evs, Event{
				Op: "exhaust", At: at, Until: at + r.Uniform(4, 15),
				Node:     r.Intn(n),
				Interval: r.Uniform(0.5, 2), Chunk: r.Uniform(0.5, 3),
			})
		case "churn":
			evs = append(evs, Event{
				Op: "churn", At: at, Until: at + r.Uniform(4, 15),
				Interval: r.Uniform(0.5, 2), Down: r.Uniform(0.5, 3),
				Seed: s.Seed*8 + int64(i),
			})
		}
	}
	return evs
}

var ops = []string{"kill", "cut", "flap", "exhaust", "churn"}
