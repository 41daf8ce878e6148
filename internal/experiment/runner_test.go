package experiment

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"realtor/internal/protocol"
)

// The paired-seed design documented on RunSweep (replication r of every
// cell shares workload seed BaseSeed+r) must survive parallel execution:
// a sweep run on one worker and on many workers has to produce
// byte-identical CSV output for every metric. This is the regression
// guard for the by-index result collection in runner.go.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	protos := StandardProtocols(protocol.DefaultConfig())
	base := FigureSweep([]float64{4, 8}, 400, 2)
	base.BaseSeed = 7

	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8 // deliberately more workers than cores and than cells per lambda

	// Parallel first, so the workers hit the shared Graph's cold distance
	// cache concurrently (regression: the cache races unless it is an
	// atomic immutable snapshot — run this under -race via `make race`).
	parSeries := RunSweep(par, protos)
	seqSeries := RunSweep(seq, protos)

	for _, m := range []Metric{Admission, MessageUnits, CostPerTask, MigrationRate} {
		a, b := CSV(seqSeries, m), CSV(parSeries, m)
		if a != b {
			t.Errorf("CSV(%v) differs between 1 and 8 workers:\nseq:\n%s\npar:\n%s", m, a, b)
		}
	}
	if !reflect.DeepEqual(seqSeries, parSeries) {
		t.Error("full Series (incl. raw replication stats) differ between 1 and 8 workers")
	}
}

// Every study routes through the same pool via the package-wide
// parallelism, so every catalogue entry must produce identical bytes at
// 1 and 8 workers — a new study is covered by being listed.
func TestStudiesDeterministicUnderParallelism(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	for _, s := range Catalogue() {
		if s.File == "" {
			continue
		}
		o := Options{Seed: 3, Quick: true}
		SetParallelism(1)
		seq, err := s.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", s.Fig, err)
		}
		SetParallelism(8)
		par, err := s.Run(o)
		if err != nil {
			t.Fatalf("%s at 8 workers: %v", s.Fig, err)
		}
		if seq != par {
			t.Errorf("%s differs between 1 and 8 workers:\nseq:\n%s\npar:\n%s", s.Fig, seq, par)
		}
	}
}

// The large-mesh study must share the determinism contract of every
// other study: identical ScalePoints at any worker count. (The 2500-node
// cell itself is the repo benchmark's scale-2500 workload; here small sides keep
// the test fast while covering the same code path.)
func TestRunScaleLargeDeterministicUnderParallelism(t *testing.T) {
	st := ScaleLargeStudy{
		Sides:         []int{4, 6},
		PerNodeLambda: 0.18,
		Radius:        2,
		Warmup:        20,
		Duration:      120,
	}
	p := realtor()
	defer SetParallelism(SetParallelism(1))
	s1 := RunScaleLarge(st, p, 3)
	SetParallelism(8)
	s8 := RunScaleLarge(st, p, 3)
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("RunScaleLarge differs between 1 and 8 workers: %v vs %v", s1, s8)
	}
	if s1[0].Nodes != 16 || s1[1].Nodes != 36 {
		t.Fatalf("unexpected sizes: %+v", s1)
	}
	for _, pt := range s1 {
		if pt.Admission <= 0 || pt.Admission > 1 {
			t.Fatalf("admission %v out of range at N=%d", pt.Admission, pt.Nodes)
		}
	}
}

func TestForEachCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 251 // prime, not a multiple of any worker count
		var mu sync.Mutex
		counts := make([]int, n)
		forEach(n, workers, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	forEach(0, 4, func(int) { t.Fatal("job ran for n=0") })
}

func TestCollectPreservesIndexOrder(t *testing.T) {
	got := collect(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("collect[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// A panic in a worker must surface on the calling goroutine (experiment
// code panics on invalid configuration), not crash the process from a
// bare goroutine.
func TestForEachPropagatesWorkerPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("panic payload %v does not mention original cause", r)
		}
	}()
	forEach(16, 4, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

func TestSetParallelism(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	if got := resolveWorkers(5); got != 5 {
		t.Fatalf("per-call hint not honoured: %d", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("default parallelism %d, want >= 1", got)
	}
}

// A cancelled context must stop the pool from claiming new cells
// promptly: at most the cells already in flight (≤ workers) finish
// after the cancellation lands.
func TestForEachCtxCancelStopsSchedulingPromptly(t *testing.T) {
	const n, workers, cancelAt = 10_000, 4, 8
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	forEachCtx(ctx, n, workers, func(int) {
		if ran.Add(1) == cancelAt {
			cancel()
		}
	})
	// cancelAt cells triggered the cancel; each of the other workers may
	// have already claimed one more. Anything near n means the context
	// was ignored.
	if got := ran.Load(); got > cancelAt+workers {
		t.Fatalf("%d cells ran after cancel at %d (workers=%d) — not prompt", got, cancelAt, workers)
	}

	// Sequential path: same contract, exact bound.
	ctx2, cancel2 := context.WithCancel(context.Background())
	ran.Store(0)
	forEachCtx(ctx2, n, 1, func(int) {
		if ran.Add(1) == cancelAt {
			cancel2()
		}
	})
	if got := ran.Load(); got != cancelAt {
		t.Fatalf("sequential path ran %d cells, want exactly %d", got, cancelAt)
	}

	// Pre-cancelled: nothing runs at all.
	pre, cancel3 := context.WithCancel(context.Background())
	cancel3()
	forEachCtx(pre, n, workers, func(int) { t.Error("cell ran on a pre-cancelled context") })
}

// SweepConfig.Ctx threads through RunSweep: a pre-cancelled sweep
// returns immediately with empty (zero-valued) cells instead of
// grinding through the grid.
func TestRunSweepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := DefaultSweep()
	sc.Ctx = ctx
	sc.Workers = 2
	out := RunSweep(sc, StandardProtocols(protocol.DefaultConfig()))
	for _, s := range out {
		for _, pt := range s.Points {
			for _, st := range pt.Raw {
				if st.Offered != 0 {
					t.Fatalf("cancelled sweep ran a cell: %+v", st)
				}
			}
		}
	}
}
