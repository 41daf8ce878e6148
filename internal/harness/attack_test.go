package harness

import (
	"strings"
	"testing"

	"realtor/internal/agile"
	"realtor/internal/agile/transport"
	"realtor/internal/attack"
	"realtor/internal/topology"
)

func TestRunLiveAttackTimeline(t *testing.T) {
	cfg := agile.DefaultConfig()
	cfg.Hosts = 6
	cfg.TimeScale = 400
	cfg.NegotiationTimeout = 40
	mk, _ := transport.ByName("chan")
	kill := attack.Kill{Targets: []topology.NodeID{0, 1}, At: 100, Revive: 200}
	// λ·mean = 10 s/s on 6 (then 4) hosts: healthy ≈ fine, attacked ≈ overloaded.
	res, err := RunLiveAttack(cfg, kill, 2, 5, 300, 50, 3, mk)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Stats.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline.Bins) < 5 {
		t.Fatalf("timeline bins %d", len(res.Timeline.Bins))
	}
	// Every submitted component reports its fate exactly once, so the
	// bins sum to the drive's own counters.
	var offered, admitted uint64
	for _, b := range res.Timeline.Bins {
		offered += b.Offered
		admitted += b.Admitted
	}
	if offered != res.Stats.Offered || admitted != res.Stats.Admitted {
		t.Fatalf("timeline sums offered %d admitted %d, stats %d/%d",
			offered, admitted, res.Stats.Offered, res.Stats.Admitted)
	}
	var before, during float64 = 1, 1
	for _, b := range res.Timeline.Bins {
		switch {
		case b.Start < 100:
			before = min(before, b.AdmissionProbability())
		case b.Start >= 100 && b.Start < 200:
			during = min(during, b.AdmissionProbability())
		}
	}
	if during >= before {
		t.Fatalf("no admission dip during live attack: before=%v during=%v", before, during)
	}
	tab := AttackTable(res)
	if !strings.Contains(tab, "interval") || !strings.Contains(tab, "victims") {
		t.Fatalf("attack table malformed:\n%s", tab)
	}
}

func TestRunLiveAttackBadVictim(t *testing.T) {
	cfg := agile.DefaultConfig()
	cfg.Hosts = 3
	mk, _ := transport.ByName("chan")
	if _, err := RunLiveAttack(cfg, attack.Kill{Targets: []topology.NodeID{9}}, 1, 5, 10, 5, 1, mk); err == nil {
		t.Fatal("out-of-range victim accepted")
	}
}
