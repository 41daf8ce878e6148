package check_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"realtor/internal/check"
	"realtor/internal/core"
	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
	"realtor/internal/protocol"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// pledgeForger is REALTOR with a forged availability list. With keep
// unset it stores every refresh of an entry it already holds with one
// second more headroom than the member pledged; with keep set it
// swallows retractions, so an entry outlives its member's withdrawal.
// The first is caught through the list's write log, the second through
// the record of the last delivery's sender.
type pledgeForger struct {
	*core.Realtor
	keep bool
}

func (f *pledgeForger) Deliver(m protocol.Message) {
	if m.Kind == protocol.Pledge || m.Kind == protocol.Advert {
		if _, held := f.Pledge(m.From); f.keep && m.Headroom <= 0 {
			return
		} else if !f.keep && held && m.Headroom > 0 {
			m.Headroom++
		}
	}
	f.Realtor.Deliver(m)
}

// membershipForger is REALTOR with a forged member side: on every
// falling threshold crossing it re-joins the lowest-numbered community
// it belongs to as though that organizer had just sent a HELP, so the
// membership is re-stamped with no HELP delivered.
type membershipForger struct{ *core.Realtor }

func (f *membershipForger) OnUsageCrossing(rising bool) {
	if !rising {
		org := topology.NodeID(-1)
		f.EachMembership(func(o topology.NodeID, _ sim.Time) bool {
			org = o
			return false
		})
		if org >= 0 {
			f.Realtor.Deliver(protocol.Message{Kind: protocol.Help, From: org})
		}
	}
	f.Realtor.OnUsageCrossing(rising)
}

// forger turns a mutant constructor into a scenario builder.
func forger(mk func(protocol.Config) protocol.Discovery) func(fuzzscen.Scenario) engine.Builder {
	return func(s fuzzscen.Scenario) engine.Builder {
		cfg := s.ProtocolConfig()
		return func() protocol.Discovery { return mk(cfg) }
	}
}

var differentialBuilders = []struct {
	name  string
	build func(fuzzscen.Scenario) engine.Builder
	i4    bool // an I4 mutant: both modes must flag I4 on some seed
}{
	{"honest", fuzzscen.Builder, false},
	{"stale-expiry", fuzzscen.MutantBuilder, false},
	{"pledge-forger/raise", forger(func(c protocol.Config) protocol.Discovery {
		return &pledgeForger{Realtor: core.New(c)}
	}), true},
	{"pledge-forger/keep", forger(func(c protocol.Config) protocol.Discovery {
		return &pledgeForger{Realtor: core.New(c), keep: true}
	}), true},
	{"membership-forger", forger(func(c protocol.Config) protocol.Discovery {
		return &membershipForger{Realtor: core.New(c)}
	}), true},
}

// runBothModes runs one scenario under the oracle twice: auditing I4
// on write, and by the full walk on every delivery.
func runBothModes(t *testing.T, be harness.Backend, s fuzzscen.Scenario,
	build func(fuzzscen.Scenario) engine.Builder) (onWrite, walk harness.Outcome) {
	t.Helper()
	onWrite, err := harness.RunChecked(be, s, build(s))
	if err != nil {
		t.Fatal(err)
	}
	restore := check.ForceExhaustiveI4()
	defer restore()
	walk, err = harness.RunChecked(be, s, build(s))
	if err != nil {
		t.Fatal(err)
	}
	return onWrite, walk
}

func countI4(vs []check.Violation) int {
	n := 0
	for _, v := range vs {
		if strings.HasPrefix(v.Invariant, "I4") {
			n++
		}
	}
	return n
}

// TestAuditOnWriteMatchesWalk is the differential for I4's audit on
// write: over fuzz seeds 1–200 (kill/revive, link faults and overlays
// as Generate draws them), the honest protocol, the seeded mutant and
// three I4 mutants give the same violation
// list — instant, node, text and order — and the same dropped count
// whether the oracle audits on write or walks every table on every
// delivery. The I4 mutants must be caught by both.
func TestAuditOnWriteMatchesWalk(t *testing.T) {
	caught := make([]int, len(differentialBuilders))
	var kills int
	for seed := int64(1); seed <= 200; seed++ {
		s := fuzzscen.Generate(seed)
		for _, ev := range s.Events {
			if ev.Op == "kill" || ev.Op == "flap" {
				kills++
				break
			}
		}
		for i, b := range differentialBuilders {
			onWrite, walk := runBothModes(t, harness.Sim(), s, b.build)
			if !reflect.DeepEqual(onWrite.Violations, walk.Violations) || onWrite.Dropped != walk.Dropped {
				t.Fatalf("seed %d, %s: audit on write found %d (+%d dropped), the walk %d (+%d)\n on write: %v\n walk:     %v",
					seed, b.name, len(onWrite.Violations), onWrite.Dropped,
					len(walk.Violations), walk.Dropped, onWrite.Violations, walk.Violations)
			}
			if b.i4 && countI4(onWrite.Violations) > 0 {
				caught[i]++
			}
		}
	}
	if kills == 0 {
		t.Fatal("seeds drew no kill/flap scenario; the differential must cover one")
	}
	for i, b := range differentialBuilders {
		if b.i4 && caught[i] == 0 {
			t.Errorf("%s: I4 never flagged in 200 seeds", b.name)
		}
	}
	t.Logf("I4 caught in %v of 200 seeds (%d with kills)", caught, kills)
}

// TestAuditOnWriteShardedMatchesWalk is the differential's sharded
// case: the 2-shard kernel with inline hooks writes the audit cursors
// from shard workers in parallel, each worker the cursors of the nodes
// it owns. Workers interleave their callbacks, so the lists are
// compared per node, where the order is fixed.
func TestAuditOnWriteShardedMatchesWalk(t *testing.T) {
	byNode := func(vs []check.Violation) []check.Violation {
		out := append([]check.Violation(nil), vs...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].Node < out[j].Node })
		return out
	}
	for _, seed := range []int64{16, 22, 40} {
		s := fuzzscen.Generate(seed)
		for _, b := range differentialBuilders {
			onWrite, walk := runBothModes(t, harness.SimSharded(2), s, b.build)
			if onWrite.Dropped != 0 || walk.Dropped != 0 {
				t.Fatalf("seed %d, %s: violations dropped past the cap; the per-node comparison needs them all", seed, b.name)
			}
			if !reflect.DeepEqual(byNode(onWrite.Violations), byNode(walk.Violations)) {
				t.Errorf("seed %d, %s at 2 shards: audit on write found %v, the walk %v",
					seed, b.name, onWrite.Violations, walk.Violations)
			}
		}
	}
}
