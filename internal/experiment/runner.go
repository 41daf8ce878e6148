package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment layer's studies all share one shape: N fully independent
// simulation cells (each owning its own engine, rng streams, and seed)
// whose results are aggregated in a fixed order. This file provides the
// worker-pool runner they fan out on. Results are collected BY INDEX and
// aggregation always walks indices in the sequential order, so output is
// bit-identical to a 1-worker run regardless of worker count or the order
// in which cells happen to finish.

// defaultWorkers holds the package-wide worker count used when a study
// does not specify its own. Zero means runtime.GOMAXPROCS(0).
var defaultWorkers atomic.Int64

// SetParallelism sets the package-wide worker count for all studies
// (RunSweep honours SweepConfig.Workers first). n <= 0 restores the
// default of GOMAXPROCS. It returns the previous setting so callers
// (tests, mainly) can restore it.
func SetParallelism(n int) int {
	prev := int(defaultWorkers.Load())
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
	return prev
}

// resolveWorkers turns a per-call hint (0 = unset) into a concrete
// worker count: hint, else package default, else GOMAXPROCS.
func resolveWorkers(hint int) int {
	if hint > 0 {
		return hint
	}
	if d := defaultWorkers.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs job(0..n-1) on min(workers, n) goroutines. Work is handed
// out through an atomic counter, so cheap and expensive cells interleave
// without static partitioning skew. With one worker (or n <= 1) it
// degenerates to a plain loop on the calling goroutine, the sequential
// reference path.
//
// A panic inside a job (experiment code panics on configuration errors)
// is captured and re-raised on the calling goroutine once all workers
// have drained, so callers see the familiar propagation instead of a
// crashed worker. The first panic also cancels the sweep: workers stop
// claiming new cells, because the aggregate result is already doomed
// and a mis-configured sweep of expensive cells should not grind on for
// minutes before reporting. Cells already in flight finish (their
// engines own no external resources, so abandoning mid-cell buys
// nothing); in the 1-worker path the panic propagates directly, which
// cancels the remaining cells for free.
func forEach(n, workersHint int, job func(i int)) {
	if n <= 0 {
		return
	}
	w := resolveWorkers(workersHint)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		stop     atomic.Bool  // set on first panic: no new cells
		panicked atomic.Value // first captured panic, if any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, fmt.Sprintf("experiment: worker panic on cell %d: %v", i, r))
							stop.Store(true)
						}
					}()
					job(i)
				}()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}

// collect is the generic by-index runner: it evaluates job(i) for
// i in [0, n) on the worker pool and returns the results in index order.
func collect[T any](n, workersHint int, job func(i int) T) []T {
	out := make([]T, n)
	forEach(n, workersHint, func(i int) { out[i] = job(i) })
	return out
}
