package agile

import (
	"strings"
	"testing"

	"realtor/internal/agile/transport"
)

func TestRunFigure9ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("live sweep")
	}
	cfg := DefaultConfig()
	cfg.Hosts = 8
	cfg.QueueCapacity = 50
	cfg.TimeScale = 400
	cfg.NegotiationTimeout = 40
	mk, err := transport.ByName("chan")
	if err != nil {
		t.Fatal(err)
	}
	// Capacity is 8 s/s; λ·mean = 5 and 45 s/s → trivial vs overloaded.
	pts, err := RunFigure9(cfg, []float64{1, 9}, 5, 150, 1, mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points %d", len(pts))
	}
	lo, hi := pts[0].Stats.AdmissionProbability(), pts[1].Stats.AdmissionProbability()
	if lo < 0.99 {
		t.Fatalf("λ=1 admission %v, want ≈1", lo)
	}
	if hi >= lo || hi > 0.8 {
		t.Fatalf("λ=9 admission %v did not degrade (λ=1: %v)", hi, lo)
	}
	if pts[1].Packets == 0 {
		t.Fatal("no packets counted")
	}
	tab := F9Table(pts)
	if !strings.Contains(tab, "admission") ||
		len(strings.Split(strings.TrimSpace(tab), "\n")) != 3 {
		t.Fatalf("table malformed:\n%s", tab)
	}
}

func TestDeadlineStudyConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("live study")
	}
	cfg := DefaultConfig()
	cfg.Hosts = 6
	cfg.QueueCapacity = 50
	cfg.TimeScale = 400
	cfg.NegotiationTimeout = 40
	mk, err := transport.ByName("chan")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDeadlineStudy(cfg, []float64{1.2}, 5, 10, 250, 1, mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results %d", len(res))
	}
	for _, r := range res {
		if r.Miss.Completed == 0 {
			t.Fatalf("%s: no completions", r.Policy)
		}
		if r.Miss.Missed > r.Miss.Completed {
			t.Fatalf("%s: missed %d > completed %d", r.Policy, r.Miss.Missed, r.Miss.Completed)
		}
		if r.Miss.Missed == 0 {
			t.Fatalf("%s: tight slack at full utilization should miss", r.Policy)
		}
		// Lateness can never exceed the queue bound: a job waits at most
		// capacity seconds and its own size is bounded by the queue too.
		if r.Miss.LatenessMax > 2*cfg.QueueCapacity {
			t.Fatalf("%s: max lateness %v beyond structural bound", r.Policy, r.Miss.LatenessMax)
		}
		if r.Miss.MeanLateness() < 0 || r.Miss.MeanLateness() > r.Miss.LatenessMax {
			t.Fatalf("%s: mean lateness %v inconsistent with max %v",
				r.Policy, r.Miss.MeanLateness(), r.Miss.LatenessMax)
		}
	}
	// The architectural finding this study documents: with bounded queues
	// and admission control governing timeliness, dispatch order is a
	// second-order effect — EDF and FIFO land in the same ballpark rather
	// than differing radically (the paper's guaranteed-rate design makes
	// the same argument). Guard against a wiring bug that would make one
	// policy pathological.
	a, b := res[0].Miss.MissRate(), res[1].Miss.MissRate()
	if a > 3*b+0.05 || b > 3*a+0.05 {
		t.Fatalf("policy miss rates implausibly far apart: %v vs %v", a, b)
	}
	tab := DeadlineTable(res)
	if !strings.Contains(tab, "miss-rate") || !strings.Contains(tab, "max-late") {
		t.Fatalf("table malformed:\n%s", tab)
	}
}
