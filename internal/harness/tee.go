package harness

import (
	"fmt"
	"runtime/debug"

	"realtor/internal/trace"
)

// teeBatch is how many events the emitting goroutine copies before it
// hands them to the drain goroutine in one channel send.
const teeBatch = 1024

// teeDepth is how many full batches may wait for the drain goroutine:
// enough for the emitter to run a few batches ahead of a recorder that
// is momentarily slower, few enough to cap what a run holds in flight.
const teeDepth = 4

type batch = [teeBatch]trace.Event

// free recycles batches across runs. Unlike a sync.Pool it keeps them
// through collections, so a run allocates a batch only when more runs
// are in flight than the list holds: it holds as many as one run can
// have out at once (the channel's, the one draining, the open one), and
// a batch returned to a full list is left to the collector.
var free = make(chan *batch, teeDepth+2)

func getBatch() *batch {
	select {
	case b := <-free:
		return b
	default:
		return new(batch)
	}
}

func putBatch(b *batch) {
	select {
	case free <- b:
	default:
	}
}

// teeRecorder moves RunOptions.Trace off the emitting goroutine. Record
// only copies the event into the open batch; each full batch goes to one
// drain goroutine, which feeds the recorder in emission order. The
// goroutine starts with the first full batch, so a run shorter than one
// batch starts none and records everything at flush.
type teeRecorder struct {
	rec  trace.Recorder
	open *batch
	n    int

	full     chan *batch // nil until the first batch fills
	done     chan struct{}
	panicked *drainPanic // set by the drain goroutine before done closes
}

// Record implements trace.Recorder. It runs under the Hooks mutex, which
// serializes concurrent emitters' calls to it, so it needs no lock of
// its own.
// Its send may block under that mutex, which cannot deadlock: the drain
// goroutine takes no lock and receives until flush closes the channel.
func (t *teeRecorder) Record(ev trace.Event) {
	if t.open == nil {
		t.open = getBatch()
	}
	t.open[t.n] = ev
	t.n++
	if t.n < teeBatch {
		return
	}
	if t.full == nil {
		t.full = make(chan *batch, teeDepth)
		t.done = make(chan struct{})
		go t.drain()
	}
	t.full <- t.open
	t.open, t.n = nil, 0
}

// drain records every full batch until flush closes the channel. After
// a panic in the recorder it keeps receiving, so the emitter never
// blocks, and leaves the panic for flush to re-raise.
func (t *teeRecorder) drain() {
	defer close(t.done)
	defer func() {
		if v := recover(); v != nil {
			t.panicked = &drainPanic{value: v, stack: debug.Stack()}
			for range t.full {
			}
		}
	}()
	for b := range t.full {
		for i := range b {
			t.rec.Record(b[i])
		}
		putBatch(b)
	}
}

// flush runs once the run has stopped emitting, on every return path of
// RunCheckedOpts: it waits for the drain goroutine to record every full
// batch and exit, re-raises a panic it caught, then records the open
// batch on the caller's goroutine.
func (t *teeRecorder) flush() {
	if t.full != nil {
		close(t.full)
		<-t.done
		if t.panicked != nil {
			panic(t.panicked)
		}
	}
	if t.open == nil {
		return
	}
	for _, ev := range t.open[:t.n] {
		t.rec.Record(ev)
	}
	putBatch(t.open)
	t.open, t.n = nil, 0
}

// drainPanic carries a recorder's panic from the drain goroutine to the
// caller, with the drain goroutine's stack: the re-raise would otherwise
// print only the caller's.
type drainPanic struct {
	value any
	stack []byte
}

func (p *drainPanic) Error() string {
	return fmt.Sprintf("%v\n\ntrace drain stack:\n%s", p.value, p.stack)
}
