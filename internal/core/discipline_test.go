package core

import (
	"testing"

	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/sim"
)

// The paper's four baselines are disciplines of Realtor; these tests pin
// each one's behaviour through protocoltest.FakeEnv.

// interval reads the live HELP_interval.
func interval(r *Realtor) sim.Time {
	iv, _, _ := r.HelpIntervalState()
	return iv
}

func TestNames(t *testing.T) {
	c := testConfig()
	cases := map[string]protocol.Discovery{
		"Push-1":   NewPurePush(c),
		"Push-.9":  NewAdaptivePush(c),
		"Pull-.9":  NewPurePull(c),
		"Pull-100": NewAdaptivePull(c),
	}
	for want, d := range cases {
		if d.Name() != want {
			t.Errorf("name %q, want %q", d.Name(), want)
		}
	}
	// Only Algorithm H disciplines are held to the oracle's I1.
	for r, want := range map[*Realtor]bool{
		New(c): true, NewAdaptivePull(c): true,
		NewPurePull(c): false, NewPurePush(c): false, NewAdaptivePush(c): false,
	} {
		if r.HelpGoverned() != want {
			t.Errorf("%s: HelpGoverned %v, want %v", r.Name(), r.HelpGoverned(), want)
		}
	}
}

func TestPurePushPeriodicAdverts(t *testing.T) {
	env := protocoltest.New(0, 100)
	p := NewPurePush(testConfig())
	p.Attach(env)
	env.Backlog = 30
	env.Advance(5.5)
	ads := env.Floods(protocol.Advert)
	if len(ads) != 5 {
		t.Fatalf("adverts in 5.5s = %d, want 5", len(ads))
	}
	for _, a := range ads {
		if a.Msg.Headroom != 70 {
			t.Fatalf("advertised headroom %v, want 70", a.Msg.Headroom)
		}
	}
}

func TestPurePushStopsOnDeath(t *testing.T) {
	env := protocoltest.New(0, 100)
	p := NewPurePush(testConfig())
	p.Attach(env)
	env.Advance(2.5)
	p.OnNodeDeath()
	n := len(env.Floods(protocol.Advert))
	env.Advance(10)
	if len(env.Floods(protocol.Advert)) != n {
		t.Fatal("dead pure-push kept advertising")
	}
}

func TestPurePushIgnoresArrivalsAndCrossings(t *testing.T) {
	env := protocoltest.New(0, 100)
	p := NewPurePush(testConfig())
	p.Attach(env)
	p.OnArrival(50)
	p.OnUsageCrossing(true)
	p.OnUsageCrossing(false)
	if len(env.Outbox) != 0 {
		t.Fatal("pure push reacted to events")
	}
}

func TestAdaptivePushCrossingAdverts(t *testing.T) {
	env := protocoltest.New(0, 100)
	p := NewAdaptivePush(testConfig())
	p.Attach(env)

	env.Backlog = 95
	p.OnUsageCrossing(true)
	ads := env.Floods(protocol.Advert)
	if len(ads) != 1 || ads[0].Msg.Headroom != 0 {
		t.Fatalf("rising advert %+v", ads)
	}

	env.Reset()
	env.Backlog = 88
	p.OnUsageCrossing(false)
	ads = env.Floods(protocol.Advert)
	if len(ads) != 1 || ads[0].Msg.Headroom != 12 {
		t.Fatalf("falling advert %+v", ads)
	}
}

func TestAdaptivePushQuietOtherwise(t *testing.T) {
	env := protocoltest.New(0, 100)
	p := NewAdaptivePush(testConfig())
	p.Attach(env)
	p.OnArrival(50)
	env.Advance(100)
	if len(env.Outbox) != 0 {
		t.Fatal("adaptive push sent without a crossing")
	}
}

func TestPurePullHelpsUnbounded(t *testing.T) {
	env := protocoltest.New(0, 100)
	p := NewPurePull(testConfig())
	p.Attach(env)
	env.Backlog = 92
	// Back-to-back qualifying arrivals: no interval gating at all.
	for i := 0; i < 5; i++ {
		p.OnArrival(1)
	}
	if got := len(env.Floods(protocol.Help)); got != 5 {
		t.Fatalf("pure pull HELPs = %d, want 5 (unbounded)", got)
	}
}

func TestPurePullQuietBelowThreshold(t *testing.T) {
	env := protocoltest.New(0, 100)
	p := NewPurePull(testConfig())
	p.Attach(env)
	env.Backlog = 30
	p.OnArrival(1)
	if len(env.Outbox) != 0 {
		t.Fatal("pure pull HELPed below threshold")
	}
}

func TestPullsReplyOncePerHelp(t *testing.T) {
	for _, mk := range []func() protocol.Discovery{
		func() protocol.Discovery { return NewPurePull(testConfig()) },
		func() protocol.Discovery { return NewAdaptivePull(testConfig()) },
	} {
		env := protocoltest.New(0, 100)
		p := mk()
		p.Attach(env)
		env.Backlog = 40
		p.Deliver(protocol.Message{Kind: protocol.Help, From: 8})
		ps := env.Unicasts(protocol.Pledge)
		if len(ps) != 1 || ps[0].To != 8 || ps[0].Msg.Headroom != 60 {
			t.Fatalf("%s: pledge reply %+v", p.Name(), ps)
		}
		// Unlike REALTOR, a later crossing generates nothing.
		env.Reset()
		env.Backlog = 95
		p.OnUsageCrossing(true)
		if len(env.Outbox) != 0 {
			t.Fatalf("%s: pull member pledged spontaneously", p.Name())
		}
	}
}

func TestPullsStayQuietOnHelpWhenBusy(t *testing.T) {
	for _, mk := range []func() protocol.Discovery{
		func() protocol.Discovery { return NewPurePull(testConfig()) },
		func() protocol.Discovery { return NewAdaptivePull(testConfig()) },
	} {
		env := protocoltest.New(0, 100)
		p := mk()
		p.Attach(env)
		env.Backlog = 95
		p.Deliver(protocol.Message{Kind: protocol.Help, From: 8})
		if len(env.Outbox) != 0 {
			t.Fatalf("%s: busy node pledged", p.Name())
		}
	}
}

func TestAdaptivePullGatedByGovernor(t *testing.T) {
	env := protocoltest.New(0, 100)
	p := NewAdaptivePull(testConfig())
	p.Attach(env)
	env.Backlog = 92
	for i := 0; i < 5; i++ {
		p.OnArrival(1)
	}
	if got := len(env.Floods(protocol.Help)); got != 1 {
		t.Fatalf("adaptive pull HELPs = %d, want 1 (interval-gated)", got)
	}
}

func TestAdaptivePullWindowIsFixed(t *testing.T) {
	env := protocoltest.New(0, 100)
	c := testConfig()
	p := NewAdaptivePull(c)
	p.Attach(env)
	if interval(p) != c.HelpUpper {
		t.Fatalf("Pull-100 window %v, want %v", interval(p), c.HelpUpper)
	}
	env.Backlog = 92
	p.OnArrival(1)
	p.Deliver(protocol.Message{Kind: protocol.Pledge, From: 2, Headroom: 50})
	p.OnMigrationOutcome(2, 5, true)
	env.Advance(c.PledgeWait + 5) // let the response timer expire too
	if interval(p) != c.HelpUpper {
		t.Fatalf("Pull-100 window drifted to %v", interval(p))
	}
	// A second qualifying arrival inside the window stays suppressed ...
	p.OnArrival(1)
	if got := len(env.Floods(protocol.Help)); got != 1 {
		t.Fatalf("HELPs inside window = %d, want 1", got)
	}
	// ... and one after the window goes out.
	env.Advance(c.HelpUpper)
	p.OnArrival(1)
	if got := len(env.Floods(protocol.Help)); got != 2 {
		t.Fatalf("HELPs after window = %d, want 2", got)
	}
}

func TestCandidateManagementShared(t *testing.T) {
	for _, mk := range []func() protocol.Discovery{
		func() protocol.Discovery { return NewPurePush(testConfig()) },
		func() protocol.Discovery { return NewAdaptivePush(testConfig()) },
		func() protocol.Discovery { return NewPurePull(testConfig()) },
		func() protocol.Discovery { return NewAdaptivePull(testConfig()) },
		func() protocol.Discovery { return New(testConfig()) },
	} {
		env := protocoltest.New(0, 100)
		p := mk()
		p.Attach(env)
		p.Deliver(protocol.Message{Kind: protocol.Advert, From: 4, Headroom: 60})
		p.Deliver(protocol.Message{Kind: protocol.Pledge, From: 5, Headroom: 30})
		cands := p.Candidates(10)
		if len(cands) != 2 || cands[0].ID != 4 {
			t.Fatalf("%s: candidates %+v", p.Name(), cands)
		}
		p.OnMigrationOutcome(4, 10, true)
		if c := p.Candidates(1); c[0].Headroom != 50 {
			t.Fatalf("%s: debit failed: %+v", p.Name(), c)
		}
		p.OnMigrationOutcome(4, 1, false)
		if c := p.Candidates(1); len(c) != 1 || c[0].ID != 5 {
			t.Fatalf("%s: eviction failed: %+v", p.Name(), c)
		}
		p.OnNodeDeath()
		if len(p.Candidates(1)) != 0 {
			t.Fatalf("%s: candidates survive death", p.Name())
		}
	}
}

func TestDeadInstancesAreSilent(t *testing.T) {
	for _, mk := range []func() protocol.Discovery{
		func() protocol.Discovery { return NewPurePush(testConfig()) },
		func() protocol.Discovery { return NewAdaptivePush(testConfig()) },
		func() protocol.Discovery { return NewPurePull(testConfig()) },
		func() protocol.Discovery { return NewAdaptivePull(testConfig()) },
		func() protocol.Discovery { return New(testConfig()) },
	} {
		env := protocoltest.New(0, 100)
		p := mk()
		p.Attach(env)
		p.OnNodeDeath()
		env.Reset()
		env.Backlog = 95
		p.OnArrival(1)
		p.OnUsageCrossing(true)
		env.Backlog = 10
		p.Deliver(protocol.Message{Kind: protocol.Help, From: 2})
		env.Advance(30)
		if len(env.Outbox) != 0 {
			t.Fatalf("%s: dead instance sent messages", p.Name())
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := testConfig()
	bad.EntryTTL = 0
	for i, f := range []func(){
		func() { NewPurePush(bad) },
		func() { NewAdaptivePush(bad) },
		func() { NewPurePull(bad) },
		func() { NewAdaptivePull(bad) },
		func() { New(bad) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("constructor %d accepted invalid config", i)
				}
			}()
			f()
		}()
	}
}
