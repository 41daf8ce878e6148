package engine

import (
	"reflect"
	"runtime"
	"testing"

	"realtor/internal/protocol"
	"realtor/internal/protocol/protocoltest"
	"realtor/internal/topology"
)

// blockGroups partitions a side×side mesh into per×per square blocks,
// numbered row-major.
func blockGroups(side, per int) []int {
	block := side / per
	g := make([]int, side*side)
	for i := range g {
		g[i] = (i/side)/block*per + (i%side)/block
	}
	return g
}

// A group's member list exists once, whatever the group's size: every
// node of the group points at it. One list per node is N × |group|
// entries — 65 MB of engine.New on this mesh, 5.8 GB at 316×316.
func TestGroupScopesShareOneListPerGroup(t *testing.T) {
	cfg := testEngineConfig()
	cfg.Graph = topology.Mesh(100, 100)
	cfg.Groups = blockGroups(100, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := New(cfg, func() protocol.Discovery { return protocoltest.Inert{} })
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 20 {
		t.Errorf("engine.New on 100×100 in 16 groups allocated %.1f MB, want < 20", mb)
	}
	// Nodes 0 and 2424 are opposite corners of block 0; 25 opens block 1.
	if &e.scope[0].members[0] != &e.scope[2424].members[0] {
		t.Error("two nodes of one group hold separate member lists")
	}
	if &e.scope[0].members[0] == &e.scope[25].members[0] {
		t.Error("nodes of different groups share a member list")
	}
	if got := len(e.scope[0].members); got != 625 {
		t.Errorf("group 0 lists %d members, want 625", got)
	}
}

// Whatever the scope kind, a flood addresses the scope's members minus
// the sender in ascending ID and is charged the scope's links — through
// the engine's send path and through the per-message reference alike.
func TestFloodScopeRecipientsAndCost(t *testing.T) {
	leftTwoColumns := make([]int, 25)
	for i := range leftTwoColumns {
		if i%5 >= 2 {
			leftTwoColumns[i] = 1
		}
	}
	everyoneBut12 := make([]topology.NodeID, 0, 24)
	for i := topology.NodeID(0); i < 25; i++ {
		if i != 12 {
			everyoneBut12 = append(everyoneBut12, i)
		}
	}
	cases := []struct {
		name   string
		radius int
		groups []int
		from   topology.NodeID
		want   []topology.NodeID
		units  float64
	}{
		{"unscoped", 0, nil, 12, everyoneBut12, 40},
		{"radius 1, centre", 1, nil, 12, []topology.NodeID{7, 11, 13, 17}, 4},
		{"radius 2, corner", 2, nil, 0, []topology.NodeID{1, 2, 5, 6, 10}, 6},
		{"groups, sender mid-list", 0, leftTwoColumns, 6, []topology.NodeID{0, 1, 5, 10, 11, 15, 16, 20, 21}, 13},
		{"groups, sender first", 0, leftTwoColumns, 2, []topology.NodeID{3, 4, 7, 8, 9, 12, 13, 14, 17, 18, 19, 22, 23, 24}, 22},
	}
	for _, tc := range cases {
		for path, wrap := range map[string]func(Builder) Builder{"wave": same, "per-message": PerMessage} {
			rec := &seqRecorder{}
			cfg := testEngineConfig()
			cfg.Warmup = 0 // charge the flood
			cfg.FloodRadius, cfg.Groups, cfg.Observer = tc.radius, tc.groups, rec
			var probes []*probe // New attaches in node order
			e := New(cfg, wrap(func() protocol.Discovery {
				probes = append(probes, &probe{log: new([]string), timer: -1})
				return probes[len(probes)-1]
			}))
			probes[tc.from].env.Flood(protocol.Message{Kind: protocol.Help, From: tc.from})
			var got []topology.NodeID
			for _, m := range rec.msgs {
				got = append(got, m.to) // nothing has run yet: sends only
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s/%s: flood from %d addressed %v, want %v", tc.name, path, tc.from, got, tc.want)
			}
			if got := e.Stats().MessageUnits; got != tc.units {
				t.Errorf("%s/%s: flood from %d charged %v units, want %v", tc.name, path, tc.from, got, tc.units)
			}
		}
	}
}
