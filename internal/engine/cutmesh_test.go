package engine_test

import (
	"fmt"
	"testing"

	"realtor/internal/fuzzscen"
	"realtor/internal/topology"
)

// TestCutMeshMatchesGridlessGraph: a mesh above the eager-matrix limit
// keeps its grid shape through link cuts and answers every distance whose
// bounding box avoids the cuts from the Manhattan formula. A run on it —
// under link churn, a held cut and a flapping node — must show the world
// exactly what the same run on a grid-less copy shows, where every
// distance comes from BFS rows: every trace event, observer call and
// outcome, in order, and the same statistics. At two shards the workers
// read the cut list concurrently while only barrier-time fault events
// write it, so the CI race leg runs this test too.
func TestCutMeshMatchesGridlessGraph(t *testing.T) {
	const side = 33 // 1089 nodes: above the 1024-node eager limit
	mid := side/2*side + side/2
	s := fuzzscen.Scenario{
		Topology: "mesh", Rows: side, Cols: side,
		Duration: 20, QueueCapacity: 20, HopDelay: 0.01, FloodRadius: 2, EngineSeed: 3,
		Threshold: 0.9, EntryTTL: 10, MembershipTTL: 15, MaxMemberships: 4,
		Alpha: 0.5, Beta: 0.3, PledgeWait: 1, HelpInit: 1,
		Lambda: 300, MeanSize: 5, WorkSeed: 4,
		Events: []fuzzscen.Event{
			{Op: "churn", At: 2, Until: 17, Interval: 0.5, Down: 2, Seed: 5},
			{Op: "cut", At: 4, Until: 12, A: mid, B: mid + 1},
			{Op: "flap", At: 3, Until: 15, Node: mid + side, Down: 1, Up: 2},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	mesh := s.Graph()
	gridless := topology.NewGraph(mesh.N())
	for _, l := range mesh.LinkList() {
		gridless.AddLink(l[0], l[1])
	}
	build := fuzzscen.Builder(s)
	for _, shards := range []int{1, 2} {
		name := fmt.Sprintf("shards=%d", shards)
		want, wantStats, ref := runRecorded(s, gridless, build, shards)
		got, gotStats, e := runRecorded(s, mesh, build, shards)
		requireSameRecords(t, name, s, want, got, wantStats, gotStats)
		// Both paths were live: the cut mesh read rows for the pairs its
		// cuts block, and the formula answered most of the rest.
		rows, refRows := e.Graph().DistStats().RowBuilds, ref.Graph().DistStats().RowBuilds
		t.Logf("%s: %d records; distance rows built %d on the cut mesh, %d grid-less", name, len(got), rows, refRows)
		if rows == 0 || rows*4 > refRows {
			t.Fatalf("%s: cut mesh built %d distance rows, grid-less copy %d; want some, and under a quarter",
				name, rows, refRows)
		}
	}
}
