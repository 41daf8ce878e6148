package policy

import (
	"math"

	"realtor/internal/protocol"
)

// elastic autoscales the local queue with hysteresis: usage is sampled
// every CheckEvery simulated seconds; SustainFor consecutive samples at
// or above HighWater grow capacity by Factor (capped at MaxScale times
// the attach-time capacity), SustainFor consecutive samples at or below
// LowWater shrink it by Factor (floored at the attach-time capacity).
// Samples in the dead band reset both streaks — that is the hysteresis
// that keeps a queue oscillating around one watermark from thrashing.
//
// Resizes go through protocol.CapacityScaler, which both backends
// implement on their Envs; on an Env without the extension (or if the
// backend rejects the resize) the policy is inert. Scaling is a local,
// deterministic decision: no coordination, no randomness.
type elastic struct {
	Base
	cfg ElasticConfig
	ctx Context

	scaler protocol.CapacityScaler // nil when the Env cannot resize
	base   float64                 // attach-time capacity: floor and MaxScale anchor
	hi, lo int                     // consecutive samples beyond each watermark
	timer  protocol.Timer
}

func (e *elastic) Name() string { return "elastic" }

// Bind implements Policy.
func (e *elastic) Bind(ctx Context) {
	e.ctx = ctx
	e.scaler, _ = ctx.Env.(protocol.CapacityScaler)
	e.base = ctx.Env.Capacity()
	e.hi, e.lo = 0, 0
	e.timer = ctx.Env.After(e.cfg.CheckEvery, e.tick)
}

// OnDeath implements Policy.
func (e *elastic) OnDeath() {
	if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
}

// tick is the hysteresis sampler. The next tick is armed first so the
// timer's event key is allocated at a fixed point regardless of whether
// this sample resizes — resizing mid-tick schedules crossing events of
// its own.
func (e *elastic) tick() {
	e.timer = e.ctx.Env.After(e.cfg.CheckEvery, e.tick)
	u := e.ctx.Env.Usage()
	switch {
	case u >= e.cfg.HighWater:
		e.hi++
		e.lo = 0
	case u <= e.cfg.LowWater:
		e.lo++
		e.hi = 0
	default:
		e.hi, e.lo = 0, 0
	}
	if e.scaler == nil {
		return
	}
	cap := e.ctx.Env.Capacity()
	if e.hi >= e.cfg.SustainFor {
		e.hi = 0
		want := math.Min(e.base*e.cfg.MaxScale, cap*e.cfg.Factor)
		if want > cap {
			e.scaler.SetCapacity(want)
		}
	} else if e.lo >= e.cfg.SustainFor {
		e.lo = 0
		want := math.Max(e.base, cap/e.cfg.Factor)
		if want < cap {
			e.scaler.SetCapacity(want)
		}
	}
}
