package engine

import (
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
)

// The per-message scheduler the wave replaced, kept as the executable
// specification of delivery order (the refDigest precedent in
// internal/scenario): every surviving copy of a send is its own event
// under its own canonical key. PerMessage routes a Builder's protocols
// through it, so the equivalence tests can run the same scenario both
// ways and demand the same observable sequence.

// PerMessage wraps b so that the protocols it builds send through the
// reference scheduler instead of nodeEnv.Flood/Unicast.
func PerMessage(b Builder) Builder {
	return func() protocol.Discovery { return refDisco{b()} }
}

// refDisco hands its protocol a refEnv at Attach (and so again on every
// revival) and is otherwise transparent.
type refDisco struct{ protocol.Discovery }

func (d refDisco) Attach(env protocol.Env) { d.Discovery.Attach(refEnv{env.(*nodeEnv)}) }

// refEnv is a node's environment with the two send methods replaced;
// clock, timers, capacity scaling and the rest are the engine's own.
type refEnv struct{ *nodeEnv }

func (v refEnv) Flood(m protocol.Message) {
	e := v.engine
	now := v.ctx.sched.Now()
	sc := &e.scope[v.id]
	if e.measuring(now) {
		st := &e.statsPer[v.id]
		st.MessageUnits += sc.cost
		switch m.Kind {
		case protocol.Help:
			st.HelpMsgs++
		case protocol.Advert:
			st.AdvertMsgs++
		case protocol.Pledge:
			st.PledgeMsgs++
		}
	}
	e.traceCtx(v.ctx, trace.Event{At: now, Kind: trace.MsgSend, Node: v.id, Peer: -1,
		Info: protocol.FloodInfo(m.Kind)})
	useDist := sc.dist != nil && !e.ownsGraph
	for k, to := range sc.members {
		if to == v.id {
			continue
		}
		d := distUnknown
		if useDist {
			d = int(sc.dist[k])
		}
		v.deliverLater(to, m, d)
	}
}

func (v refEnv) Unicast(to topology.NodeID, m protocol.Message) {
	e := v.engine
	now := v.ctx.sched.Now()
	if e.measuring(now) {
		st := &e.statsPer[v.id]
		st.MessageUnits += e.cost.UnicastUnits
		switch m.Kind {
		case protocol.Pledge, protocol.DHTFound:
			st.PledgeMsgs++
		case protocol.Help, protocol.Relay, protocol.DHTGet:
			st.HelpMsgs++
		case protocol.Advert, protocol.DHTPut:
			st.AdvertMsgs++
		}
	}
	e.traceCtx(v.ctx, trace.Event{At: now, Kind: trace.MsgSend, Node: v.id, Peer: to,
		Info: m.Kind.String()})
	v.deliverLater(to, m, distUnknown)
}

// deliverLater schedules one message copy as one event.
func (v refEnv) deliverLater(to topology.NodeID, m protocol.Message, dist int) {
	e, c := v.engine, v.ctx
	now := c.sched.Now()
	if dist == distUnknown {
		dist = e.dist(v.id, to)
	}
	if dist < 0 {
		if e.measuring(now) {
			e.statsPer[v.id].PartitionDrops++
		}
		e.traceCtx(c, trace.Event{At: now, Kind: trace.MsgDrop, Node: v.id, Peer: to,
			Info: trace.DropPartition})
		e.observe(c, emitDropObs, now, v.id, to, &m, trace.DropPartition)
		return
	}
	e.observe(c, emitSendObs, now, v.id, to, &m, "")
	if e.cfg.LossProb > 0 && e.lossRnd[v.id].Bernoulli(e.cfg.LossProb) {
		e.observe(c, emitDropObs, now, v.id, to, &m, trace.DropLoss)
		return
	}
	d := &refDelivery{e: e, from: v.id, to: to, gen: e.gen[to], m: m}
	e.schedule(c, to, now+e.cfg.HopDelay*sim.Time(dist), int32(v.id), e.nodeSeq[v.id], d)
	e.nodeSeq[v.id]++
}

// refDelivery is one in-flight message copy, executing on the
// destination's shard.
type refDelivery struct {
	e    *Engine
	from topology.NodeID
	to   topology.NodeID
	gen  int
	m    protocol.Message
}

func (d *refDelivery) Fire(at sim.Time) {
	e, c := d.e, d.e.ctxOf(d.to)
	if e.gen[d.to] == d.gen && e.nodes[d.to].Alive() {
		e.observe(c, emitDeliverObs, at, d.from, d.to, &d.m, "")
		e.machines[d.to].Disco.Deliver(d.m)
	} else {
		e.observe(c, emitDropObs, at, d.from, d.to, &d.m, trace.DropDead)
	}
}
