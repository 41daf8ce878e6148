package core

import (
	"math"
	"testing"

	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

func testConfig() protocol.Config {
	cfg := protocol.DefaultConfig()
	return cfg
}

func newAttached(t *testing.T) (*Realtor, *protocoltest.FakeEnv) {
	t.Helper()
	env := protocoltest.New(0, 100)
	r := New(testConfig())
	r.Attach(env)
	return r, env
}

// The Algorithm H governor is driven through Realtor.OnArrival, Deliver
// and OnMigrationOutcome, the only way the engine reaches it.

func TestGovernorWouldExceed(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 80
	r.OnArrival(5)
	if len(env.Outbox) != 0 {
		t.Fatal("80+5 should not exceed 90")
	}
	r.OnArrival(15)
	if len(env.Floods(protocol.Help)) != 1 {
		t.Fatal("80+15 should exceed 90")
	}
}

func TestGovernorIntervalGating(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 95
	r.OnArrival(1)
	if len(env.Floods(protocol.Help)) != 1 {
		t.Fatal("first qualifying arrival should HELP")
	}
	r.OnArrival(1)
	if len(env.Floods(protocol.Help)) != 1 {
		t.Fatal("second HELP inside the interval should be suppressed")
	}
	// The pledge timer expires at t=1 with no pledges, so the penalty
	// grows the interval to 1.5; advance beyond that.
	env.Advance(2)
	r.OnArrival(1)
	if got := len(env.Floods(protocol.Help)); got != 2 {
		t.Fatalf("helps = %d, want 2", got)
	}
}

func TestGovernorPenaltyOnTimeout(t *testing.T) {
	r, env := newAttached(t)
	cfg := testConfig()
	env.Backlog = 95
	r.OnArrival(1)
	before := interval(r)
	env.Advance(cfg.PledgeWait + 0.1) // no pledges: timeout
	want := before + before*sim.Time(cfg.Alpha)
	if iv, pen, _ := r.HelpIntervalState(); iv != want || pen != 1 {
		t.Fatalf("after penalty: interval %v penalties %d, want %v and 1", iv, pen, want)
	}
}

func TestGovernorPenaltyCapsAtUpperLimit(t *testing.T) {
	r, env := newAttached(t)
	cfg := testConfig()
	env.Backlog = 95
	for i := 0; i < 40; i++ {
		r.OnArrival(1)
		env.Advance(interval(r) + cfg.PledgeWait + 0.1)
	}
	if interval(r) != cfg.HelpUpper {
		t.Fatalf("interval %v should have saturated at Upper_limit %v", interval(r), cfg.HelpUpper)
	}
}

func TestGovernorRewardOnResourceFound(t *testing.T) {
	r, _ := newAttached(t)
	cfg := testConfig()
	before := interval(r)
	r.OnMigrationOutcome(2, 5, true)
	want := before - before*sim.Time(cfg.Beta)
	if iv, _, rew := r.HelpIntervalState(); iv != want || rew != 1 {
		t.Fatalf("after reward: interval %v rewards %d, want %v and 1", iv, rew, want)
	}
	// Pledges alone never shrink the interval.
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 2, Headroom: 40})
	if interval(r) != want {
		t.Fatal("pledge shrank the interval")
	}
}

func TestGovernorPledgeResetsTimer(t *testing.T) {
	r, env := newAttached(t)
	cfg := testConfig()
	env.Backlog = 95
	r.OnArrival(1)
	penalties := func() uint64 { _, pen, _ := r.HelpIntervalState(); return pen }
	// Keep pledging just before the timer fires; no penalty accumulates.
	for i := 0; i < 5; i++ {
		env.Advance(cfg.PledgeWait - 0.1)
		r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 2, Headroom: 40})
	}
	if penalties() != 0 {
		t.Fatalf("penalty fired despite continuous pledges: %d", penalties())
	}
	env.Advance(cfg.PledgeWait + 0.1)
	if penalties() != 1 {
		t.Fatalf("penalty after pledges stopped: %d, want 1", penalties())
	}
}

func TestGovernorIntervalStaysPositive(t *testing.T) {
	r, env := newAttached(t)
	cfg := testConfig()
	env.Backlog = 95
	for i := 0; i < 100; i++ {
		r.OnArrival(1)
		r.OnMigrationOutcome(2, 1, true)
		env.Advance(interval(r) + 0.001)
	}
	if interval(r) < cfg.HelpMin {
		t.Fatalf("interval %v fell below floor %v", interval(r), cfg.HelpMin)
	}
}

func TestRealtorName(t *testing.T) {
	r := New(testConfig())
	if r.Name() != "REALTOR-100" {
		t.Fatalf("name %q", r.Name())
	}
}

func TestRealtorHelpOnQualifyingArrival(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 50
	r.OnArrival(5) // 55 < 90: quiet
	if len(env.Floods(protocol.Help)) != 0 {
		t.Fatal("HELP sent below threshold")
	}
	env.Backlog = 88
	r.OnArrival(5) // 93 > 90: HELP
	floods := env.Floods(protocol.Help)
	if len(floods) != 1 {
		t.Fatalf("HELP floods = %d, want 1", len(floods))
	}
	if floods[0].Msg.From != 0 || floods[0].Msg.Demand != 5 {
		t.Fatalf("HELP fields %+v", floods[0].Msg)
	}
}

func TestRealtorPledgesOnHelpWhenAvailable(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 20
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 7})
	ps := env.Unicasts(protocol.Pledge)
	if len(ps) != 1 || ps[0].To != 7 {
		t.Fatalf("pledges %+v", ps)
	}
	if ps[0].Msg.Headroom != 80 {
		t.Fatalf("pledged headroom %v, want 80", ps[0].Msg.Headroom)
	}
	if math.Abs(ps[0].Msg.Grant-0.8) > 1e-12 {
		t.Fatalf("grant probability %v, want 0.8", ps[0].Msg.Grant)
	}
	if r.Memberships() != 1 {
		t.Fatalf("memberships %d, want 1", r.Memberships())
	}
}

func TestRealtorStaysQuietOnHelpWhenBusy(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 95
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 7})
	if len(env.Unicasts(protocol.Pledge)) != 0 {
		t.Fatal("busy node pledged")
	}
	if r.Memberships() != 0 {
		t.Fatal("busy node joined community")
	}
}

func TestRealtorSpontaneousPledgeOnCrossing(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 20
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 3})
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 9})
	env.Reset()

	// Rising crossing: retract availability to both organizers.
	env.Backlog = 95
	r.OnUsageCrossing(true)
	ps := env.Unicasts(protocol.Pledge)
	if len(ps) != 2 {
		t.Fatalf("crossing pledges = %d, want 2", len(ps))
	}
	for _, p := range ps {
		if p.Msg.Headroom != 0 {
			t.Fatalf("rising crossing should retract: %+v", p.Msg)
		}
	}

	env.Reset()
	env.Backlog = 85
	r.OnUsageCrossing(false)
	ps = env.Unicasts(protocol.Pledge)
	if len(ps) != 2 {
		t.Fatalf("falling crossing pledges = %d", len(ps))
	}
	for _, p := range ps {
		if p.Msg.Headroom != 15 {
			t.Fatalf("falling crossing headroom %v, want 15", p.Msg.Headroom)
		}
	}
}

func TestRealtorNoSpontaneousPledgeWithoutMembership(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 95
	r.OnUsageCrossing(true)
	if len(env.Outbox) != 0 {
		t.Fatal("non-member pledged spontaneously")
	}
}

func TestRealtorMembershipExpires(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 20
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 3})
	env.Advance(testConfig().MembershipTTL + 1)
	env.Reset()
	r.OnUsageCrossing(true)
	if len(env.Unicasts(protocol.Pledge)) != 0 {
		t.Fatal("pledged to expired membership")
	}
	if r.Memberships() != 0 {
		t.Fatal("membership survived TTL")
	}
}

func TestRealtorCandidateLifecycle(t *testing.T) {
	r, _ := newAttached(t)
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 4, Headroom: 60})
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 5, Headroom: 30})
	cands := r.Candidates(10)
	if len(cands) != 2 || cands[0].ID != 4 {
		t.Fatalf("candidates %+v", cands)
	}
	// Size filter.
	if got := r.Candidates(50); len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("size-filtered candidates %+v", got)
	}
	// Successful migration debits.
	r.OnMigrationOutcome(4, 10, true)
	cands = r.Candidates(1)
	if cands[0].ID != 4 || cands[0].Headroom != 50 {
		t.Fatalf("after debit: %+v", cands)
	}
	// Failed migration evicts.
	r.OnMigrationOutcome(4, 10, false)
	cands = r.Candidates(1)
	if len(cands) != 1 || cands[0].ID != 5 {
		t.Fatalf("after failure: %+v", cands)
	}
}

func TestRealtorRetractionRemovesCandidate(t *testing.T) {
	r, _ := newAttached(t)
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 4, Headroom: 60})
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 4, Headroom: 0})
	if len(r.Candidates(1)) != 0 {
		t.Fatal("retracted candidate survived")
	}
}

func TestRealtorMigrationSuccessRewardsGovernor(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 95
	r.OnArrival(1) // sends HELP
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 2, Headroom: 40})
	before := interval(r)
	if interval(r) != before {
		t.Fatal("pledge alone changed the interval")
	}
	r.OnMigrationOutcome(2, 5, true)
	if interval(r) >= before {
		t.Fatal("successful migration did not shrink HELP interval")
	}
	after := interval(r)
	r.OnMigrationOutcome(2, 5, false)
	if interval(r) != after {
		t.Fatal("failed migration changed the interval")
	}
}

func TestRealtorDeathDropsEverything(t *testing.T) {
	r, env := newAttached(t)
	env.Backlog = 20
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 3})
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 4, Headroom: 60})
	r.OnNodeDeath()
	if len(r.Candidates(1)) != 0 {
		t.Fatal("candidates survived death")
	}
	env.Reset()
	r.OnUsageCrossing(true)
	r.OnArrival(1)
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 9})
	if len(env.Outbox) != 0 {
		t.Fatal("dead protocol still talks")
	}
}

func TestRealtorAdvertOnlyUpdatesList(t *testing.T) {
	// Adverts from mixed deployments update the list but never touch the
	// HELP governor.
	r, env := newAttached(t)
	env.Backlog = 95
	r.OnArrival(1)
	before := interval(r)
	r.Deliver(protocol.Message{Kind: protocol.Advert, From: 2, Headroom: 40})
	if interval(r) != before {
		t.Fatal("advert touched Algorithm H")
	}
	if len(r.Candidates(1)) != 1 {
		t.Fatal("advert not recorded as candidate")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Threshold = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(cfg)
}

func TestMembershipCapEnforced(t *testing.T) {
	cfg := testConfig()
	cfg.MaxMemberships = 3
	env := protocoltest.New(0, 100)
	r := New(cfg)
	r.Attach(env)
	env.Backlog = 10
	// Six organizers HELP; only the first three get a membership, but
	// every one of them gets the one-shot pledge reply (Algorithm P's
	// reply rule is not capped).
	for org := 1; org <= 6; org++ {
		r.Deliver(protocol.Message{Kind: protocol.Help, From: topology.NodeID(org)})
	}
	if got := len(env.Unicasts(protocol.Pledge)); got != 6 {
		t.Fatalf("pledge replies %d, want 6 (reply is uncapped)", got)
	}
	if got := r.Memberships(); got != 3 {
		t.Fatalf("memberships %d, want cap 3", got)
	}
	// Crossing pledges go only to the three joined communities.
	env.Reset()
	env.Backlog = 95
	r.OnUsageCrossing(true)
	if got := len(env.Unicasts(protocol.Pledge)); got != 3 {
		t.Fatalf("crossing pledges %d, want 3", got)
	}
}

func TestMembershipRefreshDoesNotConsumeSlot(t *testing.T) {
	cfg := testConfig()
	cfg.MaxMemberships = 1
	env := protocoltest.New(0, 100)
	r := New(cfg)
	r.Attach(env)
	env.Backlog = 10
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 5})
	// Refreshing organizer 5 must always succeed even at the cap.
	env.Advance(10)
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 5})
	if r.Memberships() != 1 {
		t.Fatalf("memberships %d", r.Memberships())
	}
	// And once the lone membership expires, a new organizer can take it.
	env.Advance(cfg.MembershipTTL + 1)
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 9})
	env.Reset()
	env.Backlog = 95
	r.OnUsageCrossing(true)
	ps := env.Unicasts(protocol.Pledge)
	if len(ps) != 1 || ps[0].To != 9 {
		t.Fatalf("crossing pledges %+v, want just organizer 9", ps)
	}
}

func TestUnlimitedMembershipsWhenZero(t *testing.T) {
	cfg := testConfig()
	cfg.MaxMemberships = 0
	env := protocoltest.New(0, 100)
	r := New(cfg)
	r.Attach(env)
	env.Backlog = 10
	for org := 1; org <= 20; org++ {
		r.Deliver(protocol.Message{Kind: protocol.Help, From: topology.NodeID(org)})
	}
	if got := r.Memberships(); got != 20 {
		t.Fatalf("memberships %d, want 20 (unlimited)", got)
	}
}
