package harness

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"realtor/internal/check"
	"realtor/internal/engine"
	"realtor/internal/fuzzscen"
	"realtor/internal/protocol"
	"realtor/internal/trace"
)

// longRun emits several batches of events; shortRun fewer than one.
func longRun() fuzzscen.Scenario {
	s := fuzzscen.Generate(3)
	s.Duration *= 10
	return s
}

func shortRun() fuzzscen.Scenario {
	s := fuzzscen.Generate(3)
	s.Duration, s.Events = 2, nil
	return s
}

// captureInline runs s with a buffer tee'd straight into Hooks, under
// its mutex on the emitting goroutine: the stream RunOptions.Trace must
// see, in the same order.
func captureInline(t *testing.T, be Backend, s fuzzscen.Scenario) []trace.Event {
	t.Helper()
	hooks := &Hooks{}
	buf := &trace.Buffer{}
	hooks.Tee(buf, nil)
	inst, err := be.Start(s, fuzzscen.Builder(s), hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	hooks.Bind(check.NewWorldOracle(inst.World()))
	inst.Run(context.Background())
	return buf.Events()
}

// sliceRecorder keeps every event. As the first event arrived,
// goroutines was runtime.NumGoroutine and drained whether it arrived on
// the drain goroutine.
type sliceRecorder struct {
	events     []trace.Event
	goroutines int
	drained    bool
}

func (r *sliceRecorder) Record(ev trace.Event) {
	if r.events == nil {
		r.goroutines = runtime.NumGoroutine()
		r.drained = onDrainGoroutine()
	}
	r.events = append(r.events, ev)
}

// onDrainGoroutine reports whether its caller runs on a teeRecorder's
// drain goroutine, whose stack starts a few frames up.
func onDrainGoroutine() bool {
	pc := make([]uintptr, 8)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*teeRecorder).drain") {
			return true
		}
		if !more {
			return false
		}
	}
}

// waitGoroutines waits until no more goroutines run than before: a
// goroutine that signalled its exit may still be counted for a moment.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// RunOptions.Trace receives exactly the stream the backend emits, in
// emission order, whether the run spans many batches or less than one.
func TestPipelineFeedsTraceInEmissionOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		be   Backend
		s    fuzzscen.Scenario
	}{
		{"sim/long", Sim(), longRun()},
		{"sim/short", Sim(), shortRun()},
		{"live/long", Live(), longRun()},
		{"live/short", Live(), shortRun()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := captureInline(t, tc.be, tc.s)
			rec := &sliceRecorder{}
			if _, err := RunCheckedOpts(tc.be, tc.s, fuzzscen.Builder(tc.s), RunOptions{Trace: rec}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rec.events, want) {
				t.Fatalf("pipeline fed %d events, inline capture has %d, or their order differs",
					len(rec.events), len(want))
			}
		})
	}
}

// A run shorter than one batch starts no goroutine: its recorder runs
// on the caller's goroutine as RunCheckedOpts returns. A longer run's
// recorder runs on one drain goroutine. Either way, as a cancelled run
// and a run that panics on the emitting goroutine, it leaves the
// goroutine count where it started.
func TestPipelineGoroutines(t *testing.T) {
	long := longRun()
	arrivals := 0
	panicky := func() protocol.Discovery {
		return lateFailure{fuzzscen.Builder(long)(), &arrivals}
	}
	for _, tc := range []struct {
		name   string
		s      fuzzscen.Scenario
		build  engine.Builder // nil: the scenario's own
		cancel bool           // cancel once half the scenario has run
	}{
		{"short", shortRun(), nil, false},
		{"long", long, nil, false},
		{"canceled", long, nil, true},
		{"panicking", long, panicky, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			rec := &sliceRecorder{}
			opt := RunOptions{Trace: rec}
			build := tc.build
			if build == nil {
				build = fuzzscen.Builder(tc.s)
			}
			if tc.cancel {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opt.Ctx = ctx
				opt.OnProgress = func(p Progress) {
					if p.Now > p.End/2 {
						cancel()
					}
				}
			}
			v := func() (v any) {
				defer func() { v = recover() }()
				if _, err := RunCheckedOpts(Sim(), tc.s, build, opt); err != nil && !errors.Is(err, ErrCanceled) {
					t.Error(err)
				}
				return nil
			}()
			if (v != nil) != (tc.build != nil) {
				t.Fatalf("recovered %v", v)
			}
			// A goroutine left over from an earlier test may still exit
			// during the run, so the count can only bound from above.
			short := len(rec.events) < teeBatch
			if short != (tc.name == "short") || rec.drained == short || short && rec.goroutines > before {
				t.Fatalf("%d events against batches of %d, first recorded on the drain goroutine: %v, beside %d goroutines, %d before",
					len(rec.events), teeBatch, rec.drained, rec.goroutines, before)
			}
			waitGoroutines(t, before)
		})
	}
}

// lateFailure is a protocol instance that panics, on the emitting
// goroutine, once a few hundred tasks have arrived across the run.
type lateFailure struct {
	protocol.Discovery
	arrivals *int
}

func (d lateFailure) OnArrival(size float64) {
	if *d.arrivals++; *d.arrivals == 500 {
		panic("seeded discovery bug")
	}
	d.Discovery.OnArrival(size)
}

// seededPanic is a recorder that panics on its n-th event.
type seededPanic struct{ n int }

func (r *seededPanic) Record(trace.Event) {
	if r.n--; r.n == 0 {
		panic("seeded recorder bug")
	}
}

// A recorder's panic on the drain goroutine is re-raised on the
// caller's, carrying the recorder's value, and the drain goroutine is
// gone: the caller (a daemon job) can recover it and go on.
func TestPipelineRecorderPanicReachesCaller(t *testing.T) {
	s := longRun()
	for _, at := range []int{1, teeBatch + 1} {
		before := runtime.NumGoroutine()
		v := func() (v any) {
			defer func() { v = recover() }()
			RunCheckedOpts(Sim(), s, fuzzscen.Builder(s), RunOptions{Trace: &seededPanic{n: at}})
			return nil
		}()
		var p *drainPanic
		if err, ok := v.(error); !ok || !errors.As(err, &p) || p.value != "seeded recorder bug" {
			t.Fatalf("panic at event %d recovered as %v, want the recorder's, from the drain goroutine", at, v)
		}
		waitGoroutines(t, before)
	}
}

// A batch handed back survives collections: the next run takes it
// from the free list instead of allocating a new one.
func TestFreeBatchesOutliveCollections(t *testing.T) {
	for len(free) > 0 {
		<-free
	}
	b := getBatch()
	putBatch(b)
	runtime.GC()
	runtime.GC()
	if got := getBatch(); got != b {
		t.Fatal("the free list lost its batch to the collector")
	}
}
