package experiment

import (
	"testing"

	"realtor/internal/protocol"
)

// figureTables renders all four figure tables (Fig. 5–8) of a short
// five-protocol sweep run on the given kernel.
func figureTables(t *testing.T, shards int) string {
	t.Helper()
	sc := FigureSweep([]float64{3, 8}, 250, 2)
	sc.Engine.Shards = shards
	series := RunSweep(sc, StandardProtocols(protocol.DefaultConfig()))
	out := ""
	for _, m := range []Metric{Admission, MessageUnits, CostPerTask, MigrationRate} {
		out += Table(series, m) + "\n"
	}
	return out
}

// TestFigureTablesShardInvariant is the experiment-level half of the
// sharded kernel's determinism contract: the committed figure tables —
// every float in them — must be byte-identical whichever kernel
// produced them. The engine-level twin (TestShardedRunByteIdentical)
// checks event sequences; this checks the paper artifacts.
func TestFigureTablesShardInvariant(t *testing.T) {
	want := figureTables(t, 1)
	for _, shards := range []int{2, 4, 8} {
		if got := figureTables(t, shards); got != want {
			t.Fatalf("figure tables diverge at %d shards:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// TestScaleLargeShardInvariant pins the same contract for the A2-L
// scalability table at study scale (small sides keep the test quick;
// the committed table's full sizes run through the identical code).
func TestScaleLargeShardInvariant(t *testing.T) {
	st := ScaleLargeStudy{
		Sides:         []int{10, 16},
		PerNodeLambda: 0.18,
		Radius:        2,
		Warmup:        10,
		Duration:      110,
	}
	p := StandardProtocols(protocol.DefaultConfig())[4] // REALTOR
	want := ScaleTable(RunScaleLarge(st, p, 7))
	for _, shards := range []int{2, 8} {
		st.Shards = shards
		if got := ScaleTable(RunScaleLarge(st, p, 7)); got != want {
			t.Fatalf("scale-large table diverges at %d shards:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// TestDiscoveryShardInvariant pins it for the D1 head-to-head at its
// -quick size: the DHT, hierarchical and federation overlays under
// kill/exhaust/churn, with the trace-derived latency column riding the
// barrier replay.
func TestDiscoveryShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol sweep, three times")
	}
	table := func(shards int) string { return DiscoveryTable(RunDiscovery(smallDiscovery(), shards)) }
	want := table(1)
	for _, shards := range []int{2, 4} {
		if got := table(shards); got != want {
			t.Fatalf("discovery table diverges at %d shards:\n got:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}
