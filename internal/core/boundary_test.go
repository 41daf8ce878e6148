package core

import (
	"testing"

	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// A community membership is valid over the half-open window
// [join, join+MembershipTTL): a threshold crossing at EXACTLY the expiry
// instant must not pledge to that organizer any more. This is the
// member-side twin of TestPledgeListExpiryBoundaryIsHalfOpen — before
// the oracle audit, purgeMemberships kept entries with expiry >= now
// while the pledge list expired entries with age > TTL, so the two
// soft-state clocks disagreed at the boundary instant.
func TestMembershipExpiryBoundaryIsHalfOpen(t *testing.T) {
	cfg := testConfig()
	env := protocoltest.New(0, 100)
	r := New(cfg)
	r.Attach(env)

	env.Backlog = 20
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 3}) // join at t=0
	env.Reset()

	// Strictly inside the window: the crossing pledge goes out.
	env.Advance(cfg.MembershipTTL / 2)
	env.Backlog = 95
	r.OnUsageCrossing(true)
	if len(env.Unicasts(protocol.Pledge)) != 1 {
		t.Fatal("live membership did not receive the crossing pledge")
	}
	env.Reset()

	// At exactly join+TTL the membership is already dead.
	env.Advance(cfg.MembershipTTL / 2) // clock now at exactly MembershipTTL
	if env.Clock != cfg.MembershipTTL {
		t.Fatalf("clock %v, want exactly %v", env.Clock, cfg.MembershipTTL)
	}
	env.Backlog = 20
	r.OnUsageCrossing(false)
	if got := env.Unicasts(protocol.Pledge); len(got) != 0 {
		t.Fatalf("pledged to a membership at exactly its expiry instant: %+v", got)
	}
	if r.Memberships() != 0 {
		t.Fatal("membership still counted at exactly its expiry instant")
	}
}

// The organizer side must apply the same convention: a PLEDGE received at
// t is usable as a migration candidate until — but excluding — t+EntryTTL.
func TestCandidateUnusableAtExactExpiryInstant(t *testing.T) {
	cfg := testConfig()
	env := protocoltest.New(0, 100)
	r := New(cfg)
	r.Attach(env)

	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 7, Headroom: 50})
	env.Advance(cfg.EntryTTL) // exactly the expiry instant
	if cands := r.Candidates(10); len(cands) != 0 {
		t.Fatalf("candidate served at exactly its expiry instant: %+v", cands)
	}
}

// The read-only snapshot accessors must not expire or reorder state.
func TestEachPledgeAndMembershipAreReadOnly(t *testing.T) {
	cfg := testConfig()
	env := protocoltest.New(0, 100)
	r := New(cfg)
	r.Attach(env)

	env.Backlog = 20
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 3})
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 7, Headroom: 50})
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 2, Headroom: 60})

	var ids []int
	r.EachPledge(func(c protocol.Candidate) bool {
		ids = append(ids, int(c.ID))
		return true
	})
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 7 {
		t.Fatalf("EachPledge order %v, want better()-order [2 7]", ids)
	}

	var orgs []int
	r.EachMembership(func(org topology.NodeID, expiry sim.Time) bool {
		if expiry != env.Clock+cfg.MembershipTTL {
			t.Fatalf("membership expiry %v, want %v", expiry, env.Clock+cfg.MembershipTTL)
		}
		orgs = append(orgs, int(org))
		return true
	})
	if len(orgs) != 1 || orgs[0] != 3 {
		t.Fatalf("EachMembership saw %v, want [3]", orgs)
	}

	// Neither accessor may have expired anything or emitted messages.
	if r.CommunitySize() != 2 || r.Memberships() != 1 {
		t.Fatalf("read-only accessors perturbed state: list=%d members=%d",
			r.CommunitySize(), r.Memberships())
	}
}

// The member side's write log names every join and refresh, and the
// point lookups read what the walks read, without perturbing either
// table.
func TestWriteLogsAndPointLookups(t *testing.T) {
	cfg := testConfig()
	env := protocoltest.New(0, 100)
	r := New(cfg)
	r.Attach(env)

	r.Deliver(protocol.Message{Kind: protocol.Help, From: 5})
	env.Advance(1)
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 3})
	r.Deliver(protocol.Message{Kind: protocol.Help, From: 5}) // refresh
	r.Deliver(protocol.Message{Kind: protocol.Pledge, From: 7, Headroom: 50})

	ml := r.MembershipLog()
	if ml.Count() != 3 {
		t.Fatalf("membership log counts %d writes, want 3", ml.Count())
	}
	if id, ok := ml.Written(2); !ok || id != 5 {
		t.Fatalf("last membership write names %d (%v), want 5", id, ok)
	}
	if expiry, ok := r.Membership(5); !ok || expiry != env.Clock+cfg.MembershipTTL {
		t.Fatalf("Membership(5) = %v, %v; want %v", expiry, ok, env.Clock+cfg.MembershipTTL)
	}
	if _, ok := r.Membership(4); ok {
		t.Fatal("Membership(4) found a community never joined")
	}
	if pl := r.PledgeLog(); pl.Count() != 1 {
		t.Fatalf("pledge log counts %d writes, want 1", pl.Count())
	}
	if c, ok := r.Pledge(7); !ok || c.Headroom != 50 || c.At != env.Clock {
		t.Fatalf("Pledge(7) = %+v, %v", c, ok)
	}
	if r.CommunitySize() != 1 || r.Memberships() != 2 {
		t.Fatalf("lookups perturbed state: list=%d members=%d", r.CommunitySize(), r.Memberships())
	}
}
