package experiment

import (
	"strings"
	"testing"
)

// The headline survivability claim: at moderate load the split degrades
// BOTH sides' admission (each side has only its own capacity and loses
// in-flight cross-side discovery), drops are recorded, and the sides
// rediscover each other shortly after the heal.
func TestRunPartitionShowsDegradationAndReconvergence(t *testing.T) {
	pts := RunPartition(DefaultPartitionStudy(), []float64{6}, 1)
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	p := pts[0]
	if p.LeftSplit >= p.Before {
		t.Errorf("left side not degraded during split: %.4f vs %.4f before", p.LeftSplit, p.Before)
	}
	if p.RightSplit >= p.Before {
		t.Errorf("right side not degraded during split: %.4f vs %.4f before", p.RightSplit, p.Before)
	}
	if p.PartitionDrops == 0 {
		t.Error("no partition drops across a 300s split at λ=6")
	}
	if p.Reconverge < 0 {
		t.Error("sides never reconverged after the heal")
	}
	if p.Reconverge > 60 {
		t.Errorf("reconvergence took %.1fs at λ=6; expected prompt rediscovery", p.Reconverge)
	}
	if p.After <= p.LeftSplit && p.After <= p.RightSplit {
		t.Errorf("post-heal admission %.4f did not recover above either split side (%.4f / %.4f)",
			p.After, p.LeftSplit, p.RightSplit)
	}
}

func TestRunPartitionValidatesPhases(t *testing.T) {
	bad := []PartitionStudy{
		{Rows: 5, Cols: 5, Col: 2, Warmup: 100, At: 50, Heal: 300, Duration: 400, SampleEvery: 1},
		{Rows: 5, Cols: 5, Col: 2, Warmup: 10, At: 50, Heal: 40, Duration: 400, SampleEvery: 1},
		{Rows: 5, Cols: 5, Col: 2, Warmup: 10, At: 50, Heal: 300, Duration: 300, SampleEvery: 1},
		{Rows: 5, Cols: 5, Col: 2, Warmup: 10, At: 50, Heal: 300, Duration: 400, SampleEvery: 0},
	}
	for i, st := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid study accepted", i)
				}
			}()
			RunPartition(st, []float64{5}, 1)
		}()
	}
}

func TestPartitionTableHeader(t *testing.T) {
	out := PartitionTable([]PartitionPoint{{Lambda: 6, Before: 1, Reconverge: -1}})
	for _, col := range []string{"lambda", "before", "left-split", "right-split", "after", "drops", "reconverge"} {
		if !strings.Contains(out, col) {
			t.Errorf("table missing column %q:\n%s", col, out)
		}
	}
}
