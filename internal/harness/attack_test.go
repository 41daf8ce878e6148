package harness

import (
	"strings"
	"testing"
	"time"

	"realtor/internal/agile"
	"realtor/internal/agile/transport"
	"realtor/internal/fuzzscen"
)

func TestRunLiveAttackTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("live study")
	}
	cfg := agile.DefaultConfig()
	cfg.Hosts = 6
	cfg.TimeScale = 400
	cfg.NegotiationTimeout = 100 * time.Millisecond
	mk, _ := transport.ByName("chan")
	study := AttackStudy{Victims: []int{0, 1}, KillAt: 100, ReviveAt: 200}
	// λ·mean = 10 s/s on 6 (then 4) hosts: healthy ≈ fine, attacked ≈ overloaded.
	res, err := RunLiveAttack(cfg, study, 2, 5, 300, 50, 3, mk)
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
	if _, err := RunLiveAttack(cfg, AttackStudy{Victims: []int{9}}, 1, 5, 10, 5, 1, mk); err == nil {
		t.Fatal("out-of-range victim accepted")
	}
}

// TestAttackStudyCompilesToSharedVocabulary pins the bridge between the
// live attack experiment and the fuzzer's fault schedule: one kill event
// per victim, revive window preserved.
func TestAttackStudyCompilesToSharedVocabulary(t *testing.T) {
	st := AttackStudy{Victims: []int{2, 5}, KillAt: 10, ReviveAt: 20}
	evs := st.Events()
	if len(evs) != 2 {
		t.Fatalf("events %d, want 2", len(evs))
	}
	for i, want := range []int{2, 5} {
		ev := evs[i]
		if ev != (fuzzscen.Event{Op: "kill", At: 10, Until: 20, Node: want}) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}
