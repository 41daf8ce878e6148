package policy

import (
	"math"

	"realtor/internal/protocol"
	"realtor/internal/sim"
)

// tokenBucket rate-limits outgoing HELP floods: the bucket starts full
// (Burst tokens, granted at bind time), refills at Rate tokens per
// simulated second, and each HELP flood — original or reissue — costs
// one token. A flood finding less than a full token is suppressed
// outright: the inner protocol's interval governor has already advanced
// its own clock, so suppression only stretches the observable HELP
// gaps, and a configured retrier may reissue later when tokens have
// accrued. Non-HELP floods (ADVERT) pass untouched.
//
// The refill min(burst, tokens + rate·dt) is composable across sampling
// points — capping after each step equals capping once over the total
// elapsed time — which is what lets the oracle's I9 replay, sampling
// only at the emissions it observes, bound the same arithmetic exactly
// (up to float rounding; see check.Oracle).
type tokenBucket struct {
	Base
	cfg BucketConfig
	ctx Context

	tokens float64
	last   sim.Time
}

func (t *tokenBucket) Name() string { return "bucket" }

// Bind implements Policy: a fresh incarnation starts with a full
// bucket, clocked from its attach time.
func (t *tokenBucket) Bind(ctx Context) {
	t.ctx = ctx
	t.tokens = t.cfg.Burst
	t.last = ctx.Env.Now()
}

// OnFlood implements Policy.
func (t *tokenBucket) OnFlood(m protocol.Message) bool {
	if m.Kind != protocol.Help {
		return true
	}
	now := t.ctx.Env.Now()
	t.tokens = math.Min(t.cfg.Burst, t.tokens+t.cfg.Rate*float64(now-t.last))
	t.last = now
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}
