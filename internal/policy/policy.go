// Package policy implements a composable traffic-protection middleware
// layer for discovery protocols: token-bucket HELP-flood limiting (an
// alternative to Algorithm H's multiplicative interval), circuit
// breakers around flapping pledgers (a pledge from a host that keeps
// dying is worse than no pledge), retry with backoff and jitter for
// lost HELP exchanges, and hysteresis-based elastic capacity.
//
// A Stack wraps any protocol.Discovery and interposes on its Env: the
// inner protocol sees a stackEnv whose Flood routes through the policy
// chain (each policy may observe, reissue, or suppress), while incoming
// deliveries, candidate lists, and migration outcomes pass through
// policy hooks on their way in or out. Policies are deterministic —
// per-purpose rng.Light streams, simulated time only, no wall clock —
// so wrapped runs stay byte-identical under -parallel and -shards and
// run unchanged on the sim and live backends.
//
// Composition order is fixed: elastic, breaker, retry, token bucket.
// On the outgoing flood path the retry policy observes an original HELP
// before the bucket gates it, and a reissue re-enters the chain just
// downstream of retry via Context.Emit — so retries are rate-limited
// but never themselves retried. On the candidate path the breaker
// filters after the inner protocol has ranked. DESIGN.md §11 documents
// the layer and the invariants (I9–I11) the oracle checks over it.
package policy

import (
	"fmt"
	"strings"

	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// Config selects and parameterizes the policies of a Stack. It is pure
// data (JSON-serializable) so fuzz scenarios can embed and replay it. A
// nil pointer disables that policy.
type Config struct {
	Bucket  *BucketConfig  `json:"bucket,omitempty"`
	Breaker *BreakerConfig `json:"breaker,omitempty"`
	Retry   *RetryConfig   `json:"retry,omitempty"`
	Elastic *ElasticConfig `json:"elastic,omitempty"`

	// Seed salts the per-node jitter streams (retry backoff). Runs with
	// the same scenario seed and the same policy seed draw identical
	// jitter on every backend and at every shard count.
	Seed uint64 `json:"seed,omitempty"`
}

// BucketConfig is the token-bucket HELP limiter: Rate tokens per
// simulated second refill a bucket of depth Burst; each outgoing HELP
// flood costs one token, and floods finding an empty bucket are
// suppressed outright (the suppressed solicitation is recovered by the
// inner protocol's next crossing, or by the retry policy).
type BucketConfig struct {
	Rate  float64 `json:"rate"`  // HELP floods per second, > 0
	Burst float64 `json:"burst"` // bucket depth in tokens, ≥ 1
}

// BreakerConfig is the per-pledger circuit breaker: TripAfter
// consecutive migration failures to a target open its breaker for
// Cooldown seconds; after the cooldown one probe migration is allowed
// (half-open), and its outcome re-closes or re-opens the breaker.
type BreakerConfig struct {
	TripAfter int      `json:"trip_after"` // consecutive failures to open, ≥ 1
	Cooldown  sim.Time `json:"cooldown"`   // open → half-open delay, > 0
}

// Retry backoff strategies.
const (
	StrategyExp    = "exp"    // base, 2·base, 4·base, ...
	StrategyLinear = "linear" // base, 2·base, 3·base, ...
	StrategyConst  = "const"  // base, base, base, ...
)

// RetryConfig re-floods a HELP whose exchange appears lost: if no
// PLEDGE arrives within the backoff delay the HELP is reissued (marked
// Message.Reissue, traced "reflood-HELP"), up to MaxAttempts total
// tries with the chosen backoff growth and symmetric jitter.
type RetryConfig struct {
	MaxAttempts int      `json:"max_attempts"` // total tries incl. the original, ≥ 1
	Base        sim.Time `json:"base"`         // first backoff delay, > 0
	Strategy    string   `json:"strategy"`     // exp | linear | const
	Jitter      float64  `json:"jitter"`       // ± fraction of the delay, [0, 1)
}

// ElasticConfig autoscales local queue capacity with hysteresis: usage
// sampled every CheckEvery seconds; SustainFor consecutive samples at
// or above HighWater multiply capacity by Factor (capped at MaxScale ×
// the attach-time capacity), SustainFor consecutive samples at or below
// LowWater divide it by Factor (floored at the attach-time capacity).
type ElasticConfig struct {
	HighWater  float64  `json:"high_water"`  // scale-up usage threshold, (Low, 1]
	LowWater   float64  `json:"low_water"`   // scale-down usage threshold, (0, High)
	SustainFor int      `json:"sustain_for"` // consecutive samples before acting, ≥ 1
	Factor     float64  `json:"factor"`      // multiplicative step, > 1
	MaxScale   float64  `json:"max_scale"`   // cap as multiple of base capacity, ≥ 1
	CheckEvery sim.Time `json:"check_every"` // sampling period, > 0
}

// Enabled reports whether any policy is configured.
func (c Config) Enabled() bool {
	return c.Bucket != nil || c.Breaker != nil || c.Retry != nil || c.Elastic != nil
}

// Tag returns a short label of the enabled policies ("bucket+retry").
func (c Config) Tag() string {
	var parts []string
	if c.Elastic != nil {
		parts = append(parts, "elastic")
	}
	if c.Breaker != nil {
		parts = append(parts, "breaker")
	}
	if c.Retry != nil {
		parts = append(parts, "retry")
	}
	if c.Bucket != nil {
		parts = append(parts, "bucket")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Validate reports the first out-of-range parameter, or nil. Negative
// or zero rates, thresholds, and timers are rejected here — and again
// by the CLIs before a run starts.
func (c Config) Validate() error {
	if b := c.Bucket; b != nil {
		switch {
		case b.Rate <= 0:
			return fmt.Errorf("policy: bucket rate %v must be positive", b.Rate)
		case b.Burst < 1:
			return fmt.Errorf("policy: bucket burst %v must be at least 1 token", b.Burst)
		}
	}
	if b := c.Breaker; b != nil {
		switch {
		case b.TripAfter < 1:
			return fmt.Errorf("policy: breaker trip threshold %d must be at least 1", b.TripAfter)
		case b.Cooldown <= 0:
			return fmt.Errorf("policy: breaker cooldown %v must be positive", b.Cooldown)
		}
	}
	if r := c.Retry; r != nil {
		switch {
		case r.MaxAttempts < 1:
			return fmt.Errorf("policy: retry max attempts %d must be at least 1", r.MaxAttempts)
		case r.Base <= 0:
			return fmt.Errorf("policy: retry base delay %v must be positive", r.Base)
		case r.Jitter < 0 || r.Jitter >= 1:
			return fmt.Errorf("policy: retry jitter %v outside [0,1)", r.Jitter)
		}
		switch r.Strategy {
		case StrategyExp, StrategyLinear, StrategyConst:
		default:
			return fmt.Errorf("policy: unknown retry strategy %q (want exp, linear, or const)", r.Strategy)
		}
	}
	if e := c.Elastic; e != nil {
		switch {
		case e.LowWater <= 0 || e.HighWater > 1 || e.LowWater >= e.HighWater:
			return fmt.Errorf("policy: elastic watermarks low=%v high=%v must satisfy 0 < low < high ≤ 1",
				e.LowWater, e.HighWater)
		case e.SustainFor < 1:
			return fmt.Errorf("policy: elastic sustain count %d must be at least 1", e.SustainFor)
		case e.Factor <= 1:
			return fmt.Errorf("policy: elastic factor %v must exceed 1", e.Factor)
		case e.MaxScale < 1:
			return fmt.Errorf("policy: elastic max scale %v must be at least 1", e.MaxScale)
		case e.CheckEvery <= 0:
			return fmt.Errorf("policy: elastic check period %v must be positive", e.CheckEvery)
		}
	}
	return nil
}

// Context is what a Policy gets at bind time: the node's real backend
// environment, its position-bound emission hook, and seed material.
type Context struct {
	// Env is the backend environment (identity, clock, queue state,
	// messaging, timers). Policies must use only Env time — never the
	// wall clock — so sim and live behave identically.
	Env protocol.Env
	// Emit forwards a flood to the chain strictly downstream of this
	// policy and ultimately to the backend. The retry policy sends
	// reissues through it so they are still bucket-gated but never
	// re-retried.
	Emit func(protocol.Message)
	// Seed is the stack-level jitter seed; policies derive per-purpose
	// per-node streams from it (rng.SeedLight(Seed^purpose, node)).
	Seed uint64
}

// Policy is one middleware element of a Stack. Implementations embed
// Base and override the hooks they need; all hooks run on the owning
// node's protocol goroutine (sequential in the simulator, the host's
// actor loop live), so policies need no internal locking.
type Policy interface {
	// Name identifies the policy in tags and errors.
	Name() string
	// Bind attaches the policy to its node at Attach time. State must
	// reset here: revived nodes get a fresh stack and a fresh Bind.
	Bind(ctx Context)
	// OnFlood observes an outgoing flood; returning false suppresses it
	// (nothing downstream — later policies or the network — sees it).
	OnFlood(m protocol.Message) bool
	// OnDeliver observes an incoming message before the inner protocol.
	OnDeliver(m protocol.Message)
	// Candidates filters the inner protocol's ranked candidate list; it
	// may edit the slice in place.
	Candidates(cands []protocol.Candidate, size float64) []protocol.Candidate
	// OnOutcome observes a migration outcome before the inner protocol.
	OnOutcome(target topology.NodeID, size float64, success bool)
	// OnDeath drops timers and soft state when the node is killed.
	OnDeath()
}

// Base is a no-op Policy for embedding.
type Base struct{}

// Bind implements Policy.
func (Base) Bind(Context) {}

// OnFlood implements Policy (pass-through).
func (Base) OnFlood(protocol.Message) bool { return true }

// OnDeliver implements Policy.
func (Base) OnDeliver(protocol.Message) {}

// Candidates implements Policy (identity).
func (Base) Candidates(cands []protocol.Candidate, _ float64) []protocol.Candidate { return cands }

// OnOutcome implements Policy.
func (Base) OnOutcome(topology.NodeID, float64, bool) {}

// OnDeath implements Policy.
func (Base) OnDeath() {}

// Stack wraps a protocol.Discovery with a policy chain. It is itself a
// Discovery, so engines, the live runtime, the reference differential,
// and the oracle all drive it unchanged.
type Stack struct {
	inner protocol.Discovery
	cfg   Config
	env   protocol.Env
	chain []Policy

	bucket  *tokenBucket
	breaker *breaker
	retry   *retrier
	elastic *elastic
}

var _ protocol.Discovery = (*Stack)(nil)
var _ Auditor = (*Stack)(nil)

// newStack builds the chain in canonical composition order.
func newStack(cfg Config, inner protocol.Discovery) *Stack {
	s := &Stack{inner: inner, cfg: cfg}
	if cfg.Elastic != nil {
		s.elastic = &elastic{cfg: *cfg.Elastic}
		s.chain = append(s.chain, s.elastic)
	}
	if cfg.Breaker != nil {
		s.breaker = &breaker{cfg: *cfg.Breaker}
		s.chain = append(s.chain, s.breaker)
	}
	// A single-attempt retry never reissues; normalize it away so the
	// stack arms no timer for it.
	if cfg.Retry != nil && cfg.Retry.MaxAttempts >= 2 {
		s.retry = &retrier{cfg: *cfg.Retry}
		s.chain = append(s.chain, s.retry)
	}
	if cfg.Bucket != nil {
		s.bucket = &tokenBucket{cfg: *cfg.Bucket}
		s.chain = append(s.chain, s.bucket)
	}
	return s
}

// Name implements protocol.Discovery.
func (s *Stack) Name() string { return s.inner.Name() + "+" + s.cfg.Tag() }

// Attach implements protocol.Discovery: bind every policy to the real
// environment, then attach the inner protocol to the interposed one.
func (s *Stack) Attach(env protocol.Env) {
	s.env = env
	for i, p := range s.chain {
		next := i + 1
		p.Bind(Context{
			Env:  env,
			Seed: s.cfg.Seed,
			Emit: func(m protocol.Message) { s.emitFrom(next, m) },
		})
	}
	s.inner.Attach(&stackEnv{s: s})
}

// emitFrom runs a flood through chain[i:]; any policy may suppress it.
func (s *Stack) emitFrom(i int, m protocol.Message) {
	for ; i < len(s.chain); i++ {
		if !s.chain[i].OnFlood(m) {
			return
		}
	}
	s.env.Flood(m)
}

// OnArrival implements protocol.Discovery.
func (s *Stack) OnArrival(size float64) { s.inner.OnArrival(size) }

// OnUsageCrossing implements protocol.Discovery.
func (s *Stack) OnUsageCrossing(rising bool) { s.inner.OnUsageCrossing(rising) }

// Deliver implements protocol.Discovery: policies observe first (the
// retrier cancels its pending reissue when a PLEDGE lands).
func (s *Stack) Deliver(m protocol.Message) {
	for _, p := range s.chain {
		p.OnDeliver(m)
	}
	s.inner.Deliver(m)
}

// Candidates implements protocol.Discovery: the inner protocol ranks,
// then policies filter (the breaker drops cooling-open targets).
func (s *Stack) Candidates(size float64) []protocol.Candidate {
	cands := s.inner.Candidates(size)
	for _, p := range s.chain {
		cands = p.Candidates(cands, size)
	}
	return cands
}

// OnMigrationOutcome implements protocol.Discovery.
func (s *Stack) OnMigrationOutcome(target topology.NodeID, size float64, success bool) {
	for _, p := range s.chain {
		p.OnOutcome(target, size, success)
	}
	s.inner.OnMigrationOutcome(target, size, success)
}

// OnNodeDeath implements protocol.Discovery.
func (s *Stack) OnNodeDeath() {
	for _, p := range s.chain {
		p.OnDeath()
	}
	s.inner.OnNodeDeath()
}

// stackEnv is the environment the inner protocol sees: everything
// forwards to the backend except Flood, which enters the policy chain.
type stackEnv struct{ s *Stack }

var _ protocol.Env = (*stackEnv)(nil)

func (e *stackEnv) Self() topology.NodeID { return e.s.env.Self() }
func (e *stackEnv) Now() sim.Time         { return e.s.env.Now() }
func (e *stackEnv) Usage() float64        { return e.s.env.Usage() }
func (e *stackEnv) Headroom() float64     { return e.s.env.Headroom() }
func (e *stackEnv) Capacity() float64     { return e.s.env.Capacity() }

func (e *stackEnv) Flood(m protocol.Message) { e.s.emitFrom(0, m) }

func (e *stackEnv) Unicast(to topology.NodeID, m protocol.Message) { e.s.env.Unicast(to, m) }

func (e *stackEnv) After(d sim.Time, fn func()) protocol.Timer { return e.s.env.After(d, fn) }

// protocolState mirrors check.ProtocolState structurally — policy
// cannot import check, because check imports policy for the I9–I11
// audit surface.
type protocolState interface {
	Config() protocol.Config
	EachPledge(fn func(protocol.Candidate) bool)
	EachMembership(fn func(org topology.NodeID, expiry sim.Time) bool)
	HelpIntervalState() (interval sim.Time, penalties, rewards uint64)
	HelpGoverned() bool
	Pledge(id topology.NodeID) (protocol.Candidate, bool)
	Membership(org topology.NodeID) (expiry sim.Time, ok bool)
	PledgeLog() *protocol.WriteLog
	MembershipLog() *protocol.WriteLog
}

// stateStack is a Stack whose inner protocol exposes oracle state; it
// forwards the accessors so I1–I8 keep seeing through the middleware.
type stateStack struct {
	*Stack
	ps protocolState
}

func (s *stateStack) Config() protocol.Config { return s.ps.Config() }
func (s *stateStack) EachPledge(fn func(protocol.Candidate) bool) {
	s.ps.EachPledge(fn)
}
func (s *stateStack) EachMembership(fn func(org topology.NodeID, expiry sim.Time) bool) {
	s.ps.EachMembership(fn)
}
func (s *stateStack) HelpIntervalState() (sim.Time, uint64, uint64) {
	return s.ps.HelpIntervalState()
}
func (s *stateStack) HelpGoverned() bool { return s.ps.HelpGoverned() }
func (s *stateStack) Pledge(id topology.NodeID) (protocol.Candidate, bool) {
	return s.ps.Pledge(id)
}
func (s *stateStack) Membership(org topology.NodeID) (sim.Time, bool) {
	return s.ps.Membership(org)
}
func (s *stateStack) PledgeLog() *protocol.WriteLog     { return s.ps.PledgeLog() }
func (s *stateStack) MembershipLog() *protocol.WriteLog { return s.ps.MembershipLog() }

// Wrap interposes cfg's policies around one Discovery instance. When
// the inner protocol exposes oracle state (check.ProtocolState), the
// returned stack forwards it.
func Wrap(cfg Config, inner protocol.Discovery) protocol.Discovery {
	s := newStack(cfg, inner)
	if ps, ok := inner.(protocolState); ok {
		return &stateStack{Stack: s, ps: ps}
	}
	return s
}

// New wraps a Discovery builder so every instance (including rebuilt
// ones after Revive) gets a fresh policy stack. With no policy enabled
// it returns the builder unchanged — true zero overhead when off.
func New(cfg Config, build func() protocol.Discovery) func() protocol.Discovery {
	if !cfg.Enabled() {
		return build
	}
	return func() protocol.Discovery { return Wrap(cfg, build()) }
}

// BreakerState is a circuit breaker's position in its state machine.
type BreakerState uint8

// Breaker states: Closed (normal, counting failures), Open (cooling,
// target filtered from candidate lists), HalfOpen (one probe allowed).
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

// String renders the state for violation reports.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", uint8(s))
	}
}

// BreakerSnapshot is one target's breaker state for the I10 audit.
// Counters are cumulative for the stack's incarnation and monotone;
// legality follows from them at any observation point: half-open
// entries require a preceding trip (HalfOpens ≤ Trips — there is no
// closed→half-open edge), probes happen only while half-open (Probes ≤
// HalfOpens — one probe per half-open period), and the current state
// must be reachable (Open ⇒ Trips ≥ 1, HalfOpen ⇒ HalfOpens ≥ 1).
type BreakerSnapshot struct {
	Target    topology.NodeID
	State     BreakerState
	Until     sim.Time // Open: when the cooldown expires
	Trips     uint64   // closed/half-open → open transitions
	HalfOpens uint64   // open → half-open transitions
	Probes    uint64   // candidates admitted while half-open
}

// Auditor is the read-only surface the invariant oracle (internal/
// check) uses for I9–I11. Both Stack shapes implement it.
type Auditor interface {
	// BucketLimits reports the token-bucket configuration, if enabled.
	BucketLimits() (rate, burst float64, enabled bool)
	// EachBreaker visits per-target breaker snapshots in ascending
	// target order; returning false stops the iteration. now resolves
	// lazy open→half-open transitions read-only.
	EachBreaker(now sim.Time, fn func(BreakerSnapshot) bool)
	// RetryLedger reports the retrier's counters: originals observed,
	// reissues attempted (≥ reissues that reached the network — the
	// bucket may gate some), and the configured attempt cap.
	RetryLedger() (originals, reissued uint64, maxAttempts int, enabled bool)
}

// BucketLimits implements Auditor.
func (s *Stack) BucketLimits() (rate, burst float64, enabled bool) {
	if s.bucket == nil {
		return 0, 0, false
	}
	return s.bucket.cfg.Rate, s.bucket.cfg.Burst, true
}

// EachBreaker implements Auditor.
func (s *Stack) EachBreaker(now sim.Time, fn func(BreakerSnapshot) bool) {
	if s.breaker == nil {
		return
	}
	s.breaker.each(now, fn)
}

// RetryLedger implements Auditor.
func (s *Stack) RetryLedger() (originals, reissued uint64, maxAttempts int, enabled bool) {
	if s.retry == nil {
		return 0, 0, 0, false
	}
	return s.retry.originals, s.retry.reissued, s.retry.cfg.MaxAttempts, true
}
