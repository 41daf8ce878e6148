package experiment

import (
	"strings"
	"sync"
	"testing"
)

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
	if got := resolveWorkers(0); got != 3 {
		t.Fatalf("resolveWorkers(0) = %d after SetParallelism(3)", got)
	}
	if got := resolveWorkers(5); got != 5 {
		t.Fatalf("per-call hint not honoured: %d", got)
	}
	SetParallelism(0)
	if got := resolveWorkers(0); got < 1 {
		t.Fatalf("default parallelism %d, want >= 1", got)
	}
}
