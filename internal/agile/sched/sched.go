// Package sched provides the job-scheduling substrate of the Agile
// Objects runtime (Section 6): "Job Scheduler provides a simple form of
// real-time task scheduler with static priority and EDF (Earliest
// Deadline First) in the same priority". Every component runs at one
// priority, so the queue orders by deadline alone. The paper's Constant
// Utilization Server admission "becomes a simple utilization test";
// here that test is RunQueue.Fits against the bounded backlog.
package sched

import (
	"container/heap"
	"fmt"
)

// Job is one schedulable unit of work on a host.
type Job struct {
	ID       uint64
	Deadline float64 // absolute deadline, seconds since host epoch
	Cost     float64 // remaining execution time, seconds
}

// Policy selects the dispatching order within a run queue.
type Policy int

// Scheduling policies: EDF is the paper's job scheduler ("static priority
// and EDF in the same priority", with one priority level); FIFO serves in
// arrival order and exists as the ablation baseline quantifying what EDF
// buys. The zero value is EDF.
const (
	EDF Policy = iota
	FIFO
)

// String names the policy.
func (p Policy) String() string {
	if p == FIFO {
		return "FIFO"
	}
	return "EDF"
}

// jobHeap orders by (Deadline, ID) under EDF and by insertion sequence
// under FIFO.
type jobHeap struct {
	jobs   []Job
	seqs   []uint64
	policy Policy
}

func (h jobHeap) Len() int { return len(h.jobs) }

func (h jobHeap) Less(i, j int) bool {
	if h.policy == FIFO {
		return h.seqs[i] < h.seqs[j]
	}
	if h.jobs[i].Deadline != h.jobs[j].Deadline {
		return h.jobs[i].Deadline < h.jobs[j].Deadline
	}
	return h.jobs[i].ID < h.jobs[j].ID
}

func (h jobHeap) Swap(i, j int) {
	h.jobs[i], h.jobs[j] = h.jobs[j], h.jobs[i]
	h.seqs[i], h.seqs[j] = h.seqs[j], h.seqs[i]
}

type seqJob struct {
	job Job
	seq uint64
}

func (h *jobHeap) Push(x any) {
	sj := x.(seqJob)
	h.jobs = append(h.jobs, sj.job)
	h.seqs = append(h.seqs, sj.seq)
}

func (h *jobHeap) Pop() any {
	n := len(h.jobs)
	j := h.jobs[n-1]
	h.jobs = h.jobs[:n-1]
	h.seqs = h.seqs[:n-1]
	return j
}

// RunQueue is an EDF (or FIFO) run queue with bounded total backlog,
// measured in seconds of execution time — the host-level "queue of N
// seconds" of the paper's experiments. It is not goroutine-safe;
// each host's actor loop owns its queue.
type RunQueue struct {
	capacity float64
	backlog  float64
	heap     jobHeap
	seq      uint64
}

// NewRunQueue returns an empty queue holding at most capacity seconds of
// work, dispatched in the given policy's order.
func NewRunQueue(capacity float64, policy Policy) *RunQueue {
	if capacity <= 0 {
		panic("sched: capacity must be positive")
	}
	return &RunQueue{capacity: capacity, heap: jobHeap{policy: policy}}
}

// Capacity returns the backlog bound in seconds.
func (q *RunQueue) Capacity() float64 { return q.capacity }

// Backlog returns the queued seconds of work.
func (q *RunQueue) Backlog() float64 { return q.backlog }

// Len returns the number of queued jobs.
func (q *RunQueue) Len() int { return len(q.heap.jobs) }

// Fits reports whether a job of the given cost can be enqueued: the
// utilization test that is the runtime's whole admission control.
func (q *RunQueue) Fits(cost float64) bool {
	return q.backlog+cost <= q.capacity
}

// Push enqueues a job. It returns false (without enqueueing) when the
// job would overflow the backlog bound. Non-positive costs panic.
func (q *RunQueue) Push(j Job) bool {
	if j.Cost <= 0 {
		panic(fmt.Sprintf("sched: job %d has non-positive cost %v", j.ID, j.Cost))
	}
	if !q.Fits(j.Cost) {
		return false
	}
	heap.Push(&q.heap, seqJob{job: j, seq: q.seq})
	q.seq++
	q.backlog += j.Cost
	return true
}

// Pop removes and returns the next job in policy order.
func (q *RunQueue) Pop() (Job, bool) {
	if len(q.heap.jobs) == 0 {
		return Job{}, false
	}
	j := heap.Pop(&q.heap).(Job)
	q.backlog -= j.Cost
	if q.backlog < 0 {
		q.backlog = 0 // guard against float drift
	}
	return j, true
}

// Drain removes up to dt seconds of work in scheduling order, returning
// the jobs completed and, for a partially executed head job, decrementing
// its remaining cost in place. This is how a host advances its queue
// between events without per-job timers.
func (q *RunQueue) Drain(dt float64) []Job {
	if dt < 0 {
		panic("sched: negative drain")
	}
	var done []Job
	for dt > 0 && len(q.heap.jobs) > 0 {
		head := q.heap.jobs[0]
		if head.Cost <= dt {
			dt -= head.Cost
			j := heap.Pop(&q.heap).(Job)
			q.backlog -= j.Cost
			done = append(done, j)
			continue
		}
		q.heap.jobs[0].Cost -= dt
		q.backlog -= dt
		dt = 0
	}
	if q.backlog < 1e-12 && len(q.heap.jobs) == 0 {
		q.backlog = 0
	}
	return done
}

// Snapshot returns the queued jobs in scheduling order (non-destructive).
func (q *RunQueue) Snapshot() []Job {
	cp := jobHeap{
		jobs:   append([]Job(nil), q.heap.jobs...),
		seqs:   append([]uint64(nil), q.heap.seqs...),
		policy: q.heap.policy,
	}
	out := make([]Job, 0, len(cp.jobs))
	for len(cp.jobs) > 0 {
		out = append(out, heap.Pop(&cp).(Job))
	}
	return out
}
