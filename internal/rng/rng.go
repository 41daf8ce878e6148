// Package rng provides deterministic, splittable random-variate streams
// for the simulator.
//
// Each logical noise source in an experiment (arrival process, task sizes,
// node selection, attack timing, ...) gets its own Stream derived from the
// run seed, so adding a new consumer never perturbs the draws seen by
// existing ones — a standard requirement for variance reduction and for
// reproducible A/B comparisons between protocols.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Stream is a deterministic pseudo-random variate source.
type Stream struct {
	r *rand.Rand
}

// New returns a stream seeded with seed.
func New(seed int64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(seed))}
}

// Derive returns an independent child stream identified by name. The child
// seed mixes the parent seed material with the name via FNV-1a, so streams
// with distinct names are decorrelated and stable across runs.
func (s *Stream) Derive(name string) *Stream {
	h := fnv.New64a()
	// Mix in parent state by drawing one value; this makes Derive order-
	// sensitive on purpose: derive all children before drawing variates.
	var buf [8]byte
	v := s.r.Uint64()
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	return New(int64(h.Sum64()))
}

// Light is a compact splittable generator (xorshift128+, 16 bytes of
// state) for per-entity noise sources that would be too numerous for
// full Streams: math/rand's source holds ~5 KB of state, so a
// 100 000-node mesh with one loss stream per node would pin ~500 MB.
// A Light stream costs 16 bytes and one cache line's work per draw.
// The zero value is not usable; seed it with SeedLight.
type Light struct {
	s0, s1 uint64
}

// SeedLight returns a Light generator seeded from two parent draws run
// through splitmix64, so distinct seeds give well-separated sequences.
func SeedLight(a, b uint64) Light {
	mix := func(z uint64) uint64 {
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	l := Light{s0: mix(a), s1: mix(b)}
	if l.s0 == 0 && l.s1 == 0 {
		l.s0 = 1 // xorshift must not start at the all-zero state
	}
	return l
}

// Uint64 returns the next raw 64-bit value.
func (l *Light) Uint64() uint64 {
	x, y := l.s0, l.s1
	l.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	l.s1 = x
	return x + y
}

// Float64 returns a uniform variate in [0, 1).
func (l *Light) Float64() float64 {
	return float64(l.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (l *Light) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return l.Float64() < p
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Exp returns an exponential variate with the given mean. A non-positive
// mean panics: it denotes a mis-configured workload, not a valid draw.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: exponential mean must be positive")
	}
	// Inverse CDF on (0,1]; 1-Float64() avoids log(0).
	return -mean * math.Log(1-s.r.Float64())
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// method for small means and a normal approximation above 30 (adequate for
// workload generation; exact tails are irrelevant here).
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(s.Normal(mean, math.Sqrt(mean))))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Normal returns a normal variate with the given mean and stddev.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Uniform returns a uniform variate in [lo, hi). It panics if hi < lo.
func (s *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: uniform bounds inverted")
	}
	return lo + (hi-lo)*s.r.Float64()
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Pareto returns a bounded Pareto-ish heavy-tailed variate with the given
// shape and minimum. Used by extension workloads to stress discovery under
// bursty service times.
func (s *Stream) Pareto(shape, min float64) float64 {
	if shape <= 0 || min <= 0 {
		panic("rng: pareto parameters must be positive")
	}
	u := 1 - s.r.Float64() // (0,1]
	return min / math.Pow(u, 1/shape)
}
