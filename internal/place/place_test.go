package place

import (
	"fmt"
	"reflect"
	"testing"

	"realtor/internal/node"
	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/resource"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// fake is a Port and a Discovery that log every output the machine
// produces, in order. Its queue is a fluid node, advanced only to the
// instants the machine passes; there is no kernel and no clock.
type fake struct {
	log        []string
	q          *node.Node
	cands      []topology.NodeID
	ineligible map[topology.NodeID]bool
}

func (f *fake) logf(format string, a ...any) { f.log = append(f.log, fmt.Sprintf(format, a...)) }

func (f *fake) Backlog(now sim.Time) float64 { return f.q.Backlog(now) }
func (f *fake) Capacity() float64            { return f.q.Capacity() }
func (f *fake) Accept(now sim.Time, t Task) bool {
	return f.q.Accept(now, t.Size)
}
func (f *fake) Emit(ev trace.Event, _ sim.Time) {
	f.logf("%s %d>%d %g %s", ev.Kind, ev.Node, ev.Peer, ev.Size, ev.Info)
}
func (f *fake) Outcome(t Task, at sim.Time, admitted bool) {
	f.logf("outcome %d at %g %v", t.ID, at, admitted)
}
func (f *fake) Request(now sim.Time, tr Try) {
	f.logf("request %d>%d try %d", tr.From, tr.To, tr.Attempt)
}
func (f *fake) ArmCrossing(now sim.Time, over float64) { f.logf("arm %g+%g", now, over) }
func (f *fake) CancelCrossing()                        { f.logf("cancel") }
func (f *fake) Eligible(id topology.NodeID, req resource.Attrs) bool {
	return !f.ineligible[id] && (id != 1 || req.Security <= 1)
}

func (f *fake) Name() string        { return "fake" }
func (f *fake) Attach(protocol.Env) {}
func (f *fake) OnArrival(size float64) {
	f.logf("disco arrival %g", size)
}
func (f *fake) OnUsageCrossing(rising bool) { f.logf("disco crossing %v", rising) }
func (f *fake) Deliver(protocol.Message)    {}
func (f *fake) Candidates(float64) []protocol.Candidate {
	var out []protocol.Candidate
	for _, id := range f.cands {
		out = append(out, protocol.Candidate{ID: id})
	}
	return out
}
func (f *fake) OnMigrationOutcome(target topology.NodeID, size float64, ok bool) {
	f.logf("disco outcome %d %g %v", target, size, ok)
}
func (f *fake) OnNodeDeath() { f.logf("disco death") }

func task(id uint64, size float64) Task {
	return Task{Task: workload.Task{ID: id, Node: 1, Size: size}}
}

func try(id uint64, size float64, attempt int) Try {
	return Try{Task: task(id, size), From: 1, To: 4, Attempt: attempt}
}

// TestMachineOutputs feeds node 1's machine (capacity 100, threshold
// 0.9) each input and asserts its outputs in order. Its protocol lists
// nodes 1, 3 and 4; node 3 is never eligible, and node 1 lacks the
// security level 2 some tasks require.
func TestMachineOutputs(t *testing.T) {
	rows := []struct {
		name   string
		queued float64 // backlog at t=0
		tries  int
		in     func(m *Machine)
		want   []string
	}{
		{"arrival admitted locally", 10, 1, func(m *Machine) { m.Arrive(0, task(7, 5), "") }, []string{
			"arrival 1>-1 5 ", "disco arrival 5", "admit-local 1>-1 5 ", "outcome 7 at 0 true"}},
		{"admission crosses up and arms the fall", 85, 1, func(m *Machine) { m.Arrive(0, task(7, 10), "") }, []string{
			"arrival 1>-1 10 ", "disco arrival 10", "admit-local 1>-1 10 ", "outcome 7 at 0 true",
			"cross-up 1>-1 0 ", "disco crossing true", "arm 0+5"}},
		{"a second admission above only re-arms", 85, 1, func(m *Machine) {
			m.Arrive(0, task(7, 10), "")
			m.Arrive(1, task(8, 2), "")
		}, []string{
			"arrival 1>-1 10 ", "disco arrival 10", "admit-local 1>-1 10 ", "outcome 7 at 0 true",
			"cross-up 1>-1 0 ", "disco crossing true", "arm 0+5",
			"arrival 1>-1 2 ", "disco arrival 2", "admit-local 1>-1 2 ", "outcome 8 at 1 true", "arm 1+6"}},
		// The falling crossing is delivered at the armed instant as a
		// clock that truncates to whole nanoseconds would deliver it:
		// a hair early, with the backlog still above the threshold by
		// less than a nanosecond of work. It must fall all the same.
		{"falling crossing at the truncated instant", 85, 1, func(m *Machine) {
			m.Arrive(0, task(7, 10), "")
			m.Cross(5 - 4e-10)
		}, []string{
			"arrival 1>-1 10 ", "disco arrival 10", "admit-local 1>-1 10 ", "outcome 7 at 0 true",
			"cross-up 1>-1 0 ", "disco crossing true", "arm 0+5",
			"cross-down 1>-1 0 ", "disco crossing false"}},
		{"crossing below the threshold is a no-op", 10, 1, func(m *Machine) { m.Cross(3) }, nil},
		{"refused arrival", 0, 1, func(m *Machine) { m.Arrive(2, task(7, 5), DeadNode) }, []string{
			"arrival 1>-1 5 ", "reject 1>-1 5 dead-node", "outcome 7 at 2 false"}},
		{"incompatible arrival shows maximal demand and migrates", 0, 1, func(m *Machine) {
			tk := task(7, 5)
			tk.Require.Security = 2
			m.Arrive(0, tk, "")
		}, []string{
			"arrival 1>-1 5 ", "disco arrival 100", "migrate-try 1>4 5 ", "request 1>4 try 1"}},
		{"full queue tries the first eligible candidate but itself", 95, 1, func(m *Machine) { m.Arrive(0, task(7, 10), "") }, []string{
			"arrival 1>-1 10 ", "disco arrival 10", "migrate-try 1>4 10 ", "request 1>4 try 1"}},
		{"target admits and reports", 0, 1, func(m *Machine) { m.Admit(3, Try{Task: task(7, 5), From: 2, To: 1, Attempt: 1}) }, []string{
			"migrate-ok 2>1 5 ", "outcome 7 at 3 true"}},
		{"target denies", 98, 1, func(m *Machine) { m.Admit(0, Try{Task: task(7, 5), From: 2, To: 1, Attempt: 1}) }, []string{
			"migrate-fail 2>1 5 "}},
		{"placed verdict only teaches the protocol", 0, 1, func(m *Machine) { m.Verdict(4, try(7, 5, 1), true, true, "") }, []string{
			"disco outcome 4 5 true"}},
		{"denied verdict retries within the bound", 95, 2, func(m *Machine) { m.Verdict(4, try(7, 10, 1), false, true, "") }, []string{
			"disco outcome 4 10 false", "migrate-try 1>4 10 ", "request 1>4 try 2"}},
		{"denied verdict on the last try rejects", 95, 2, func(m *Machine) { m.Verdict(4, try(7, 10, 2), false, true, "") }, []string{
			"disco outcome 4 10 false", "reject 1>-1 10 tries-exhausted", "outcome 7 at 4 false"}},
		{"timeout records the failed try", 95, 1, func(m *Machine) { m.Verdict(4, try(7, 10, 1), false, true, Timeout) }, []string{
			"disco outcome 4 10 false", "migrate-fail 1>4 10 timeout", "reject 1>-1 10 tries-exhausted", "outcome 7 at 4 false"}},
		{"late grant is a placement", 0, 1, func(m *Machine) { m.Verdict(4, try(7, 5, 1), true, true, LateGrant) }, []string{
			"disco outcome 4 5 true"}},
		{"denial at a restarted origin rejects without retry", 95, 3, func(m *Machine) { m.Verdict(4, try(7, 10, 1), false, false, "") }, []string{
			"reject 1>-1 10 tries-exhausted", "outcome 7 at 4 false"}},
		{"origin died", 0, 3, func(m *Machine) { m.Verdict(4, try(7, 5, 1), false, false, OriginDied) }, []string{
			"reject 1>-1 5 origin-died", "outcome 7 at 4 false"}},
		{"grant to a dead origin stands", 0, 3, func(m *Machine) { m.Verdict(4, try(7, 5, 1), true, false, OriginDied) }, nil},
		{"origin unreachable is resolved at the target", 0, 1, func(m *Machine) {
			m.Verdict(4, Try{Task: task(7, 5), From: 2, To: 1, Attempt: 1}, false, false, OriginUnreachable)
		}, []string{"reject 2>1 5 origin-unreachable", "outcome 7 at 4 false"}},
		{"no candidate rejects", 95, 1, func(m *Machine) {
			m.Disco.(*fake).cands = []topology.NodeID{1, 3}
			m.Arrive(0, task(7, 10), "")
		}, []string{"arrival 1>-1 10 ", "disco arrival 10", "reject 1>-1 10 no-candidate", "outcome 7 at 0 false"}},
		{"kill drops the crossing", 95, 1, func(m *Machine) {
			m.Inject(0)
			m.Kill()
			m.Cross(5)
		}, []string{"cross-up 1>-1 0 ", "disco crossing true", "arm 0+5", "disco death", "cancel"}},
		{"revive swaps the protocol", 0, 1, func(m *Machine) {
			m.Revive(protocoltest.Inert{})
			m.Arrive(0, task(7, 5), "")
		}, []string{"arrival 1>-1 5 ", "admit-local 1>-1 5 ", "outcome 7 at 0 true"}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := &fake{q: node.New(1, 100), cands: []topology.NodeID{1, 3, 4},
				ineligible: map[topology.NodeID]bool{3: true}}
			if r.queued > 0 {
				f.q.Accept(0, r.queued)
			}
			m := New(1, f, f, 0.9, r.tries)
			r.in(&m)
			if !reflect.DeepEqual(f.log, r.want) {
				t.Errorf("outputs:\n got %q\nwant %q", f.log, r.want)
			}
		})
	}
}

func TestTriesZeroMeansOne(t *testing.T) {
	for in, want := range map[int]int{-1: 1, 0: 1, 1: 1, 3: 3} {
		if got := Tries(in); got != want {
			t.Errorf("Tries(%d) = %d, want %d", in, got, want)
		}
	}
}
