package experiment

import (
	"sync"
	"testing"

	"realtor/internal/check"
	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/protocol"
	"realtor/internal/topology"
)

// auditedCell is one study cell with the invariant oracle bound to it.
type auditedCell struct {
	e *engine.Engine
	o *check.Oracle
}

// cellAudit collects the cells bindOracle has bound, from whichever
// worker built them.
type cellAudit struct {
	mu    sync.Mutex
	cells []auditedCell
}

// bindOracle binds the invariant oracle — I1–I8, exact (slack 0) — to
// every engine newCell builds until the test ends. Every study builds
// its engines through newCell, so this puts every cell of every
// catalogue entry under the oracle; a new study is covered by being
// listed. The hook sets InlineHooks, as harness.SimSharded does: on a
// sharded cell the oracle's headroom checks read engine state that is
// live only at callback time, so the shard workers call it as they go
// (check.Hooks serializes them) instead of at the next barrier's
// ordered replay. A single-shard cell delivers inline either way.
func bindOracle(t *testing.T) *cellAudit {
	a := &cellAudit{}
	auditCell = func(cfg engine.Config) (engine.Config, func(*engine.Engine)) {
		h := &check.Hooks{}
		h.Tee(cfg.Trace, cfg.Observer)
		cfg.Trace, cfg.Observer = h, h
		cfg.InlineHooks = true
		return cfg, func(e *engine.Engine) {
			o := check.NewWorldOracle(check.EngineWorld{E: e}, 0)
			h.Bind(o)
			a.mu.Lock()
			a.cells = append(a.cells, auditedCell{e, o})
			a.mu.Unlock()
		}
	}
	t.Cleanup(func() { auditCell = nil })
	return a
}

// take returns the cells bound since the last call, each with its
// oracle finished at the cell's end.
func (a *cellAudit) take() []auditedCell {
	a.mu.Lock()
	defer a.mu.Unlock()
	cells := a.cells
	a.cells = nil
	for _, c := range cells {
		c.o.Finish(c.e.Scheduler().Now())
	}
	return cells
}

// The oracle bound through auditCell has teeth: seeded bugs on the
// Section 5 cell are caught through the same hook that audits every
// catalogue cell in TestCheapTablesMatchCommittedResults — the
// expiry-breaking mutant over REALTOR and over Pull-100, and a Push-.9
// that keeps an entry after its member retracted (I4's retraction rule;
// StaleRealtor alone cannot catch a push bug, since push lists always
// hold a fitting entry).
func TestCatalogueCellsUnderOracle(t *testing.T) {
	audit := bindOracle(t)
	pc := protocol.DefaultConfig()
	for name, build := range map[string]engine.Builder{
		"StaleRealtor/REALTOR-100": func() protocol.Discovery { return check.NewStaleRealtor(pc) },
		"StaleRealtor/Pull-100":    func() protocol.Discovery { return &check.StaleRealtor{Realtor: core.NewAdaptivePull(pc)} },
		"no-retract/Push-.9":       func() protocol.Discovery { return noRetract{core.NewAdaptivePush(pc)} },
	} {
		cfg := PaperCell(topology.Mesh(5, 5), 20, 300, 1)
		e := newCell(cfg, build)
		e.Run(PoissonSource(cfg, 8))
		if cells := audit.take(); len(cells) != 1 || cells[0].o.Err() == nil {
			t.Errorf("oracle bound through auditCell missed the %s mutant", name)
		}
	}
}

// noRetract is a Push-.9 whose list ignores retractions: an ADVERT with
// no headroom leaves the member's old entry in place.
type noRetract struct{ *core.Realtor }

func (n noRetract) Deliver(m protocol.Message) {
	if m.Kind == protocol.Advert && m.Headroom <= 0 {
		return
	}
	n.Realtor.Deliver(m)
}
