package harness

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"realtor/internal/agile"
	"realtor/internal/agile/transport"
	"realtor/internal/attack"
	"realtor/internal/fuzzscen"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/trace"
	"realtor/internal/workload"
)

// faultRec is one trace event a fault schedule emits: a node's kill or
// revive (b = -1), or a link's cut or restore (a < b).
type faultRec struct {
	kind trace.Kind
	a, b topology.NodeID
	at   float64
}

// faultRecorder keeps the fault events before end.
type faultRecorder struct {
	end  float64
	recs []faultRec
}

func (r *faultRecorder) Record(ev trace.Event) {
	if float64(ev.At) >= r.end {
		return
	}
	switch ev.Kind {
	case trace.NodeKill, trace.NodeRevive:
		r.recs = append(r.recs, faultRec{ev.Kind, ev.Node, -1, float64(ev.At)})
	case trace.LinkCut, trace.LinkRestore:
		r.recs = append(r.recs, faultRec{ev.Kind, min(ev.Node, ev.Peer), max(ev.Node, ev.Peer), float64(ev.At)})
	}
}

// faultSplit sorts one kernel's fault events into the schedule's
// parts: node events, the cut events' link events, and the churn
// instants (cuts, and restores paired with the cut Down before them).
type faultSplit struct {
	nodes, cuts   []faultRec
	churnCuts     []float64
	churnRestores []float64
	churnPairs    map[[2]topology.NodeID]bool // pairs a churn cut
}

// splitFaults classifies recs against s's events: a link event belongs
// to a cut event when it is on that event's pair at its At (a cut) or
// Until (a restore); every other link event is churn's.
func splitFaults(s fuzzscen.Scenario, recs []faultRec) faultSplit {
	ownedBy := func(r faultRec) bool {
		for _, ev := range s.Events {
			if ev.Op != "cut" || topology.NodeID(min(ev.A, ev.B)) != r.a || topology.NodeID(max(ev.A, ev.B)) != r.b {
				continue
			}
			if r.kind == trace.LinkCut && r.at == ev.At ||
				r.kind == trace.LinkRestore && ev.Until > ev.At && r.at == ev.Until {
				return true
			}
		}
		return false
	}
	sp := faultSplit{churnPairs: map[[2]topology.NodeID]bool{}}
	for _, r := range recs {
		switch {
		case r.kind == trace.NodeKill || r.kind == trace.NodeRevive:
			sp.nodes = append(sp.nodes, r)
		case ownedBy(r):
			sp.cuts = append(sp.cuts, r)
		case r.kind == trace.LinkCut:
			sp.churnCuts = append(sp.churnCuts, r.at)
			sp.churnPairs[[2]topology.NodeID{r.a, r.b}] = true
		default:
			sp.churnRestores = append(sp.churnRestores, r.at)
		}
	}
	sort.Float64s(sp.churnCuts)
	sort.Float64s(sp.churnRestores)
	return sp
}

// sameFaults compares two lists of fault events as multisets.
func sameFaults(x, y []faultRec) bool {
	order := func(rs []faultRec) {
		sort.Slice(rs, func(i, j int) bool {
			p, q := rs[i], rs[j]
			if p.a != q.a || p.b != q.b {
				return p.a < q.a || p.a == q.a && p.b < q.b
			}
			if p.kind != q.kind {
				return p.kind < q.kind
			}
			return p.at < q.at
		})
	}
	order(x)
	order(y)
	return slices.Equal(x, y)
}

// TestFaultScheduleAgreesAcrossKernels runs generated scenarios that
// carry kills, cuts or flaps on the simulator and on the live cluster,
// and demands the same fault events from both: every NodeKill,
// NodeRevive, and every LinkCut / LinkRestore a cut event causes, in
// kind, node(s) and instant, bit for bit: both kernels keep time on
// sim.Time seconds. Churn
// draws its links from different sets on the two kernels (mesh links,
// host pairs), so only its instants are compared: a cut at every
// At + k·Interval on both, each healed Down later. A cut event whose
// pair churn also cut, on either kernel, is left out of the comparison.
// Events from the live cluster's settling past Duration, which the
// simulator does not run, are ignored.
func TestFaultScheduleAgreesAcrossKernels(t *testing.T) {
	seen := map[string]int{}
	compared, seeds := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		s := fuzzscen.Generate(seed)
		carries := false
		for _, ev := range s.Events {
			switch ev.Op {
			case "kill", "cut", "flap":
				carries = true
			}
		}
		if !carries {
			continue
		}
		seeds++
		var split [2]faultSplit
		for k, be := range []Backend{Sim(), Live()} {
			rec := &faultRecorder{end: s.Duration}
			if _, err := RunCheckedOpts(be, s, fuzzscen.Builder(s), RunOptions{Trace: rec}); err != nil {
				t.Fatalf("seed %d on %s: %v", seed, be.Name(), err)
			}
			split[k] = splitFaults(s, rec.recs)
		}
		simS, liveS := split[0], split[1]

		for _, ev := range s.Events {
			seen[ev.Op]++
		}
		if !sameFaults(simS.nodes, liveS.nodes) {
			t.Errorf("seed %d: kill/revive drift:\n sim  %v\n live %v", seed, simS.nodes, liveS.nodes)
		}
		uncontested := func(rs []faultRec) (out []faultRec) {
			for _, r := range rs {
				if p := [2]topology.NodeID{r.a, r.b}; !simS.churnPairs[p] && !liveS.churnPairs[p] {
					out = append(out, r)
				}
			}
			return out
		}
		simCuts, liveCuts := uncontested(simS.cuts), uncontested(liveS.cuts)
		compared += len(simCuts)
		if !sameFaults(simCuts, liveCuts) {
			t.Errorf("seed %d: cut drift:\n sim  %v\n live %v", seed, simCuts, liveCuts)
		}

		type tick struct{ at, down float64 }
		var ticks []tick
		for _, ev := range s.Events {
			if ev.Op != "churn" {
				continue
			}
			for at := sim.Time(ev.At); at < sim.Time(ev.Until) && float64(at) < s.Duration; at += sim.Time(ev.Interval) {
				ticks = append(ticks, tick{float64(at), ev.Down})
			}
		}
		sort.Slice(ticks, func(i, j int) bool { return ticks[i].at < ticks[j].at })
		want := make([]float64, len(ticks))
		for i, tk := range ticks {
			want[i] = tk.at
		}
		for k, sp := range split {
			name := []string{"sim", "live"}[k]
			if !slices.Equal(sp.churnCuts, want) {
				t.Errorf("seed %d: churn spacing drift on %s: cuts at %v, want At + k·Interval %v",
					seed, name, sp.churnCuts, want)
				continue
			}
			var heals []float64
			for i, at := range sp.churnCuts {
				if heal := at + ticks[i].down; heal < s.Duration {
					heals = append(heals, heal)
				}
			}
			sort.Float64s(heals)
			if !slices.Equal(sp.churnRestores, heals) {
				t.Errorf("seed %d: churn heal drift on %s: restores at %v, want %v", seed, name, sp.churnRestores, heals)
			}
		}
	}
	for _, op := range []string{"kill", "cut", "flap", "churn"} {
		if seen[op] == 0 {
			t.Errorf("no compared seed carries a %s event", op)
		}
	}
	if compared < 20 {
		t.Errorf("only %d cut-event link events compared over %d seeds", compared, seeds)
	}
	t.Logf("%d seeds, %d cut-event link events compared", seeds, compared)
}

// TestFaultScheduleOverUDP applies a restoring LinkCut, a Flap and a
// LinkChurn to a loopback-UDP cluster, whose wall-clock driver runs
// each timed command on a timer goroutine. The scenarios keep unlocked
// state (LinkCut's cut flags, LinkChurn's generator, the live target's
// cut set), so under -race this fails unless timed commands never
// overlap; without -race it checks the cut set against the traced
// cuts from inside a command.
func TestFaultScheduleOverUDP(t *testing.T) {
	cfg := agile.DefaultConfig()
	cfg.Hosts = 4
	cfg.TimeScale = 1000
	cfg.NegotiationTimeout = 20
	udp, err := transport.NewUDP(cfg.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	fn := transport.NewFault(udp, 1)
	c, err := agile.NewCluster(cfg, fn)
	if err != nil {
		fn.Close()
		t.Fatal(err)
	}
	defer c.Stop()
	var links trace.Buffer
	tg := newLiveTarget(c, fn, 0, &links)
	for _, a := range []attack.Scenario{
		attack.LinkCut{Links: [][2]topology.NodeID{{0, 1}, {2, 3}}, At: 5, Restore: 25},
		attack.Flap{Target: 2, Start: 2, DownFor: 1, UpFor: 1, Until: 30},
		attack.LinkChurn{Start: 1, Until: 30, Interval: 0.25, Down: 2, Seed: 3},
	} {
		a.Apply(tg)
	}
	verdict := make(chan error, 1)
	c.At(35, func() {
		cuts, restores := len(links.OfKind(trace.LinkCut)), len(links.OfKind(trace.LinkRestore))
		var err error
		if up := len(tg.LinkList()); up != 6-(cuts-restores) {
			err = fmt.Errorf("%d cuts and %d restores traced, but %d of 6 links up", cuts, restores, up)
		} else if cuts < 2 {
			err = fmt.Errorf("only %d cuts traced", cuts)
		}
		verdict <- err
	})
	st, _ := c.Drive(context.Background(), workload.NewPoisson(2, 2, cfg.Hosts, rng.New(1)), 40)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := <-verdict; err != nil {
		t.Fatal(err)
	}
}
