// Greedy counterexample shrinking: given a failing scenario and the
// predicate that makes it fail, repeatedly try simpler variants and
// keep any that still fail, to a fixpoint. Deterministic (the predicate
// is a pure function of the scenario), so the shrunk counterexample is
// as replayable as the original.
package fuzzscen

import "math"

// minShrinkDuration is the floor for duration halving: below this a run
// barely gets past protocol warmup and everything fails vacuously.
const minShrinkDuration = 4

// Shrink minimises a failing scenario. fails must return true for s
// itself (otherwise s is returned unchanged); every candidate the
// shrinker keeps also satisfies fails, so the result is a genuine,
// smaller counterexample. The loop is greedy — event removal first
// (biggest reduction in schedule complexity), then duration halving,
// then scalar simplifications — iterated to a fixpoint.
func Shrink(s Scenario, fails func(Scenario) bool) Scenario {
	if !fails(s) {
		return s
	}
	for changed := true; changed; {
		changed = false

		// 1. Drop events one at a time. Index advances only when the
		// event turns out to be load-bearing.
		for i := 0; i < len(s.Events); {
			cand := s
			cand.Events = append(append([]Event(nil), s.Events[:i]...), s.Events[i+1:]...)
			if fails(cand) {
				s = cand
				changed = true
			} else {
				i++
			}
		}

		// 2. Halve the run.
		if half := math.Max(minShrinkDuration, s.Duration/2); half < s.Duration {
			cand := s
			cand.Duration = half
			if fails(cand) {
				s = cand
				changed = true
			}
		}

		// 3. Scalar simplifications: knock optional complexity back to
		// its default when the failure survives without it.
		for _, sub := range []func(*Scenario) bool{
			func(c *Scenario) bool { ch := c.Discovery != ""; c.Discovery = ""; return ch },
			func(c *Scenario) bool { ch := c.LossProb != 0; c.LossProb = 0; return ch },
			func(c *Scenario) bool { ch := c.MaxTries != 0; c.MaxTries = 0; return ch },
			func(c *Scenario) bool { ch := c.FloodRadius != 0; c.FloodRadius = 0; return ch },
		} {
			cand := s
			if !sub(&cand) {
				continue
			}
			if fails(cand) {
				s = cand
				changed = true
			}
		}
	}
	return s
}
