package experiment

import (
	"sync"
	"testing"

	"realtor/internal/check"
	"realtor/internal/engine"
	"realtor/internal/protocol"
	"realtor/internal/topology"
)

// The committed figure tables used to be the one output not under the
// invariant oracle. Every study builds its engines through newCell, so
// binding the oracle there puts every cell of every catalogue entry
// under I1–I11 (exact, slack 0) at once; a new study is covered by being
// listed.
//
// Cells whose Discovery does not expose check.ProtocolState (no pledge
// list, membership set or HELP interval to read) get only the
// backend-level invariants — I5 task and message conservation, I6
// partition safety, I8 crossing alternation. statelessCells names the
// entries that have such cells and why; the test fails if that list
// stops matching the studies.
func TestCatalogueCellsUnderOracle(t *testing.T) {
	statelessCells := map[string]string{
		"figures_5_8.txt": "four of the five contenders are the push/pull baselines",
		"loss.txt":        "four of the five contenders are the push/pull baselines",
		"attack.txt":      "four of the five contenders are the push/pull baselines",
		"gossip.txt":      "Push-1 and the anti-entropy gossip comparator",
		"federation.txt":  "federation.Discovery embeds REALTOR without forwarding its state",
		"discovery.txt":   "HIER and FED embed REALTOR without forwarding its state; DHT exposes check.OverlayState instead (I4/I5-overlay)",
	}
	type audited struct {
		e *engine.Engine
		o *check.Oracle
	}
	var (
		mu    sync.Mutex
		cells []audited
	)
	auditCell = func(cfg engine.Config) (engine.Config, func(*engine.Engine)) {
		h := &check.Hooks{}
		h.Tee(cfg.Trace, cfg.Observer)
		cfg.Trace, cfg.Observer = h, h
		return cfg, func(e *engine.Engine) {
			o := check.NewWorldOracle(check.EngineWorld{E: e}, 0)
			h.Bind(o)
			mu.Lock()
			cells = append(cells, audited{e, o})
			mu.Unlock()
		}
	}
	defer func() { auditCell = nil }()

	for _, s := range Catalogue() {
		if s.File == "" {
			continue
		}
		cells = cells[:0]
		if _, err := s.Run(Options{Seed: 1, Quick: true}); err != nil {
			t.Fatalf("%s: %v", s.Fig, err)
		}
		stateless := 0
		for _, c := range cells {
			c.o.Finish(c.e.Scheduler().Now())
			if err := c.o.Err(); err != nil {
				t.Errorf("%s: %v", s.Fig, err)
			}
			if _, ok := c.e.Discovery(0).(check.ProtocolState); !ok {
				stateless++
			}
		}
		if len(cells) == 0 {
			t.Errorf("%s built no cell through newCell", s.Fig)
		}
		if why, listed := statelessCells[s.File]; listed != (stateless > 0) {
			t.Errorf("%s: %d of %d cells expose no protocol state, but statelessCells says %q",
				s.Fig, stateless, len(cells), why)
		}
	}

	// The binding has teeth: the seeded expiry-breaking mutant on the
	// same Section 5 cell is caught through the same hook.
	cells = cells[:0]
	cfg := PaperCell(topology.Mesh(5, 5), 20, 300, 1)
	e := newCell(cfg, func() protocol.Discovery { return check.NewStaleRealtor(protocol.DefaultConfig()) })
	e.Run(PoissonSource(cfg, 8))
	cells[0].o.Finish(e.Scheduler().Now())
	if cells[0].o.Err() == nil {
		t.Error("oracle bound through auditCell missed the StaleRealtor mutant")
	}
}
