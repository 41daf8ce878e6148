package sched

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunQueueOrdering(t *testing.T) {
	q := NewRunQueue(100, EDF)
	q.Push(Job{ID: 1, Deadline: 10, Cost: 1})
	q.Push(Job{ID: 2, Deadline: 50, Cost: 1})
	q.Push(Job{ID: 3, Deadline: 20, Cost: 1})
	q.Push(Job{ID: 4, Deadline: 5, Cost: 1})
	var order []uint64
	for {
		j, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, j.ID)
	}
	// Earliest deadline first, whatever the insertion order.
	want := []uint64{4, 1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestRunQueueEDFTieBreaksByID(t *testing.T) {
	q := NewRunQueue(100, EDF)
	q.Push(Job{ID: 9, Deadline: 10, Cost: 1})
	q.Push(Job{ID: 2, Deadline: 10, Cost: 1})
	j, _ := q.Pop()
	if j.ID != 2 {
		t.Fatalf("tie-break popped %d, want 2", j.ID)
	}
}

func TestRunQueueCapacity(t *testing.T) {
	q := NewRunQueue(10, EDF)
	if !q.Push(Job{ID: 1, Cost: 6}) {
		t.Fatal("push 6 into empty 10 failed")
	}
	if !q.Push(Job{ID: 2, Cost: 4}) {
		t.Fatal("push to exactly full failed")
	}
	if q.Push(Job{ID: 3, Cost: 0.1}) {
		t.Fatal("overflow push succeeded")
	}
	if q.Backlog() != 10 || q.Len() != 2 {
		t.Fatalf("backlog %v len %d", q.Backlog(), q.Len())
	}
}

func TestRunQueueInvalidPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for zero capacity")
			}
		}()
		NewRunQueue(0, EDF)
	}()
	q := NewRunQueue(10, EDF)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for zero cost")
			}
		}()
		q.Push(Job{ID: 1, Cost: 0})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for negative drain")
			}
		}()
		q.Drain(-1)
	}()
}

func TestDrainCompletesInOrder(t *testing.T) {
	q := NewRunQueue(100, EDF)
	q.Push(Job{ID: 1, Deadline: 5, Cost: 2})
	q.Push(Job{ID: 2, Deadline: 1, Cost: 3})
	done := q.Drain(4)
	// Job 2 (earlier deadline) runs first: 3s; then 1s of job 1 remains 1s.
	if len(done) != 1 || done[0].ID != 2 {
		t.Fatalf("done %v", done)
	}
	if math.Abs(q.Backlog()-1) > 1e-12 {
		t.Fatalf("backlog %v, want 1", q.Backlog())
	}
	head := q.Snapshot()[0]
	if head.ID != 1 || math.Abs(head.Cost-1) > 1e-12 {
		t.Fatalf("head %+v", head)
	}
	done = q.Drain(10)
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("second drain %v", done)
	}
	if q.Backlog() != 0 || q.Len() != 0 {
		t.Fatal("queue not empty after full drain")
	}
}

func TestDrainZeroIsNoop(t *testing.T) {
	q := NewRunQueue(10, EDF)
	q.Push(Job{ID: 1, Cost: 5})
	if got := q.Drain(0); len(got) != 0 {
		t.Fatal("drain(0) completed jobs")
	}
	if q.Backlog() != 5 {
		t.Fatal("drain(0) changed backlog")
	}
}

func TestSnapshotNonDestructive(t *testing.T) {
	q := NewRunQueue(100, EDF)
	for i := 0; i < 5; i++ {
		q.Push(Job{ID: uint64(i), Deadline: float64(10 - i%3), Cost: 1})
	}
	snap := q.Snapshot()
	if len(snap) != 5 || q.Len() != 5 {
		t.Fatal("snapshot destructive or wrong size")
	}
	for i := 1; i < len(snap); i++ {
		a, b := snap[i-1], snap[i]
		if a.Deadline > b.Deadline || (a.Deadline == b.Deadline && a.ID > b.ID) {
			t.Fatalf("snapshot out of order: %+v before %+v", a, b)
		}
	}
}

// Property: backlog always equals the sum of queued costs, and drains
// never complete jobs out of scheduling order.
func TestQuickRunQueueInvariants(t *testing.T) {
	type op struct {
		Cost     uint8
		Deadline uint8
		Drain    uint8
	}
	id := uint64(0)
	f := func(ops []op) bool {
		q := NewRunQueue(50, EDF)
		for _, o := range ops {
			id++
			cost := float64(o.Cost%40)/4 + 0.25
			q.Push(Job{ID: id, Deadline: float64(o.Deadline), Cost: cost})
			q.Drain(float64(o.Drain) / 8)
			sum := 0.0
			for _, j := range q.Snapshot() {
				sum += j.Cost
			}
			if math.Abs(sum-q.Backlog()) > 1e-9 {
				return false
			}
			if q.Backlog() > 50+1e-9 || q.Backlog() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: popping everything yields the same order as sorting by
// (deadline, id).
func TestQuickPopIsSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		q := NewRunQueue(1e9, EDF)
		jobs := make([]Job, 0, len(raw))
		for i, r := range raw {
			j := Job{ID: uint64(i), Deadline: float64(r % 16), Cost: 1}
			jobs = append(jobs, j)
			q.Push(j)
		}
		sort.Slice(jobs, func(i, k int) bool {
			a, b := jobs[i], jobs[k]
			if a.Deadline != b.Deadline {
				return a.Deadline < b.Deadline
			}
			return a.ID < b.ID
		})
		for _, want := range jobs {
			got, ok := q.Pop()
			if !ok || got.ID != want.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunQueuePushPop(b *testing.B) {
	q := NewRunQueue(1e12, EDF)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(Job{ID: uint64(i), Deadline: float64(i % 97), Cost: 1})
		if i%2 == 1 {
			q.Pop()
			q.Pop()
		}
	}
}

func TestFIFOPolicyOrdering(t *testing.T) {
	q := NewRunQueue(100, FIFO)
	if FIFO.String() != "FIFO" {
		t.Fatal("FIFO string")
	}
	// Insertion order wins regardless of deadlines.
	q.Push(Job{ID: 1, Deadline: 100, Cost: 1})
	q.Push(Job{ID: 2, Deadline: 1, Cost: 1})
	q.Push(Job{ID: 3, Deadline: 0.5, Cost: 1})
	var order []uint64
	for {
		j, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, j.ID)
	}
	want := []uint64{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("FIFO order %v, want %v", order, want)
		}
	}
}

func TestFIFODrainOrder(t *testing.T) {
	q := NewRunQueue(100, FIFO)
	q.Push(Job{ID: 1, Deadline: 100, Cost: 2})
	q.Push(Job{ID: 2, Deadline: 1, Cost: 2})
	done := q.Drain(3)
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("FIFO drain completed %v, want job 1 first", done)
	}
	if head := q.Snapshot()[0]; head.ID != 2 || head.Cost != 1 {
		t.Fatalf("head %+v", head)
	}
}

// The zero Policy is EDF, so a Config that names no policy runs the
// paper's scheduler.
func TestEDFDefaultPolicy(t *testing.T) {
	var p Policy
	if p != EDF {
		t.Fatal("default policy not EDF")
	}
	if EDF.String() != "EDF" {
		t.Fatal("EDF string")
	}
}

func TestSnapshotFIFO(t *testing.T) {
	q := NewRunQueue(100, FIFO)
	for i := 5; i > 0; i-- {
		q.Push(Job{ID: uint64(i), Deadline: float64(i), Cost: 1})
	}
	snap := q.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].ID > snap[i-1].ID {
			// IDs were pushed descending, so FIFO order is descending IDs.
			t.Fatalf("FIFO snapshot out of insertion order: %v", snap)
		}
	}
}
