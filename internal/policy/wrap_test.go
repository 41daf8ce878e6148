// Black-box tests of the wrapping seams: these live in an external test
// package because they import internal/check (which itself imports
// policy for the audit surface) and internal/core.
package policy_test

import (
	"testing"

	"realtor/internal/check"
	"realtor/internal/core"
	"realtor/internal/policy"
	"realtor/internal/protocol"
)

// TestWrapForwardsOracleState pins the stateStack seam: wrapping a
// protocol that exposes check.ProtocolState must yield a Discovery that
// still exposes it — the oracle's I1–I8 checks see through the
// middleware — and must satisfy the I9–I11 Auditor surface.
func TestWrapForwardsOracleState(t *testing.T) {
	inner := core.New(protocol.DefaultConfig())
	if _, ok := interface{}(inner).(check.ProtocolState); !ok {
		t.Fatal("core.Realtor no longer exposes check.ProtocolState; test assumptions broken")
	}
	d := policy.Wrap(policy.DefaultStack(), inner)
	ps, ok := d.(check.ProtocolState)
	if !ok {
		t.Fatalf("wrapped stack (%T) hides check.ProtocolState from the oracle", d)
	}
	if got, want := ps.Config().Threshold, protocol.DefaultConfig().Threshold; got != want {
		t.Fatalf("forwarded Config().Threshold = %v, want %v", got, want)
	}
	if ps.PledgeLog() != inner.PledgeLog() || ps.MembershipLog() != inner.MembershipLog() {
		t.Fatal("wrapped stack does not forward the inner protocol's write logs")
	}
	if _, ok := d.(policy.Auditor); !ok {
		t.Fatalf("wrapped stack (%T) does not implement policy.Auditor", d)
	}
}

// TestNewIsIdentityWhenDisabled: with no policy enabled, New must hand
// back instances untouched — zero overhead, zero behaviour change.
func TestNewIsIdentityWhenDisabled(t *testing.T) {
	build := func() protocol.Discovery { return core.New(protocol.DefaultConfig()) }
	d := policy.New(policy.Config{}, build)()
	if _, wrapped := d.(policy.Auditor); wrapped {
		t.Fatalf("disabled config still wrapped the protocol: %T", d)
	}
	if d.Name() != build().Name() {
		t.Fatalf("disabled wrap changed the protocol name to %q", d.Name())
	}
}
