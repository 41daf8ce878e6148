package sched

import (
	"math"
	"testing"
)

// FuzzRunQueue drives both policies with an arbitrary push/drain/pop
// sequence and checks backlog conservation and capacity bounds.
func FuzzRunQueue(f *testing.F) {
	f.Add([]byte{10, 1, 2, 20, 3, 0, 5, 9, 1})
	f.Add([]byte{255, 255, 255, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range []Policy{EDF, FIFO} {
			q := NewRunQueue(40, policy)
			id := uint64(0)
			for i := 0; i+2 < len(data); i += 3 {
				op, a, b := data[i], data[i+1], data[i+2]
				switch op % 3 {
				case 0:
					id++
					cost := float64(a%32)/4 + 0.25
					want := q.Fits(cost)
					got := q.Push(Job{ID: id, Deadline: float64(b), Cost: cost})
					if want != got {
						t.Fatalf("%v: Fits=%v but Push=%v", policy, want, got)
					}
				case 1:
					q.Drain(float64(a) / 16)
				case 2:
					q.Pop()
				}
				sum := 0.0
				for _, j := range q.Snapshot() {
					sum += j.Cost
				}
				if math.Abs(sum-q.Backlog()) > 1e-6 {
					t.Fatalf("%v: backlog %v != sum %v", policy, q.Backlog(), sum)
				}
				if q.Backlog() < 0 || q.Backlog() > 40+1e-9 {
					t.Fatalf("%v: backlog %v out of bounds", policy, q.Backlog())
				}
				if (q.Len() == 0) != (q.Backlog() == 0) {
					t.Fatalf("%v: len %d vs backlog %v", policy, q.Len(), q.Backlog())
				}
			}
		}
	})
}
