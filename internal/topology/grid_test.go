package topology

import "testing"

// rebuildWithoutGrid copies g's link set through the generic constructor
// path, so Dist answers from BFS rows instead of the Manhattan formula.
func rebuildWithoutGrid(g *Graph) *Graph {
	c := NewGraph(g.N())
	for _, l := range g.LinkList() {
		c.AddLink(l[0], l[1])
	}
	return c
}

// TestGridFastPathMatchesBFS: on a pristine mesh the Manhattan formula
// must agree with BFS for every pair, including ragged shapes.
func TestGridFastPathMatchesBFS(t *testing.T) {
	for _, dims := range [][2]int{{5, 7}, {1, 9}, {6, 1}, {4, 4}} {
		g := Mesh(dims[0], dims[1])
		ref := rebuildWithoutGrid(g)
		for a := 0; a < g.N(); a++ {
			for b := 0; b < g.N(); b++ {
				if got, want := g.Dist(NodeID(a), NodeID(b)), ref.Dist(NodeID(a), NodeID(b)); got != want {
					t.Fatalf("Mesh(%d,%d) Dist(%d,%d) = %d, BFS says %d", dims[0], dims[1], a, b, got, want)
				}
			}
		}
	}
}

// TestGridFastPathDoesNoBFSWork: a mesh above the eager-build limit
// answers distance queries without materializing any rows at all.
func TestGridFastPathDoesNoBFSWork(t *testing.T) {
	g := Mesh(40, 40) // 1600 nodes: above eagerDistLimit, lazy rows otherwise
	for i := 0; i < g.N(); i += 7 {
		g.Dist(NodeID(i), NodeID(g.N()-1-i))
	}
	if st := g.DistStats(); st.FullBuilds != 0 || st.RowBuilds != 0 {
		t.Fatalf("pristine mesh did BFS work: %+v", st)
	}
}

// TestGridFastPathClearedByMutation: any link mutation invalidates the
// grid shape; distances must then reflect the mutated graph.
func TestGridFastPathClearedByMutation(t *testing.T) {
	g := Mesh(4, 4)
	if g.Dist(0, 1) != 1 {
		t.Fatalf("adjacent mesh nodes: Dist = %d", g.Dist(0, 1))
	}
	g.CutLink(0, 1)
	if got := g.Dist(0, 1); got != 3 {
		t.Fatalf("after CutLink(0,1) Dist(0,1) = %d, want 3 (0-4-5-1)", got)
	}
	g.RestoreLink(0, 1)
	if got := g.Dist(0, 1); got != 1 {
		t.Fatalf("after RestoreLink Dist(0,1) = %d, want 1", got)
	}
	if g.gridCols != 0 {
		t.Fatal("gridCols survived a link mutation")
	}

	g2 := Mesh(4, 4)
	g2.RemoveNodeLinks(5)
	if got := g2.Dist(1, 9); got != 4 {
		t.Fatalf("after RemoveNodeLinks(5) Dist(1,9) = %d, want 4", got)
	}
}

// TestGridFastPathSurvivesClone: Clone rebuilds via AddLink but the copy
// is link-identical, so it keeps the O(1) path.
func TestGridFastPathSurvivesClone(t *testing.T) {
	g := Mesh(40, 40)
	c := g.Clone()
	c.Dist(0, NodeID(c.N()-1))
	if st := c.DistStats(); st.FullBuilds != 0 || st.RowBuilds != 0 {
		t.Fatalf("cloned pristine mesh did BFS work: %+v", st)
	}
	c.CutLink(0, 1)
	if g.gridCols == 0 {
		t.Fatal("mutating the clone cleared the original's grid flag")
	}
	if got := g.Dist(0, 1); got != 1 {
		t.Fatalf("original Dist(0,1) = %d after clone mutation", got)
	}
}

// TestMeshMetricsClosedForm: on a pristine mesh MeanPathLength and
// Diameter come from closed forms; they must reproduce the all-sources
// BFS sweep exactly (the same float64, not merely a close one — the cost
// model and the settle window feed byte-compared outputs), do no BFS
// work, and give way to the sweep as soon as the link set mutates.
func TestMeshMetricsClosedForm(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 9}, {6, 1}, {5, 5}, {4, 7}, {7, 3}, {50, 50}} {
		g := Mesh(dims[0], dims[1])
		ref := rebuildWithoutGrid(g)
		if got, want := g.MeanPathLength(), ref.MeanPathLength(); got != want {
			t.Fatalf("Mesh(%d,%d) MeanPathLength = %v, BFS sweep says %v", dims[0], dims[1], got, want)
		}
		if got, want := g.Diameter(), ref.Diameter(); got != want {
			t.Fatalf("Mesh(%d,%d) Diameter = %d, BFS sweep says %d", dims[0], dims[1], got, want)
		}
		if st := g.DistStats(); st != (DistStats{}) {
			t.Fatalf("Mesh(%d,%d) metrics did BFS work: %+v", dims[0], dims[1], st)
		}
	}

	g := Mesh(4, 7)
	g.CutLink(9, 10)
	ref := rebuildWithoutGrid(g)
	if got, want := g.MeanPathLength(), ref.MeanPathLength(); got != want {
		t.Fatalf("cut mesh MeanPathLength = %v, BFS sweep says %v", got, want)
	}
	if got, want := g.Diameter(), ref.Diameter(); got != want {
		t.Fatalf("cut mesh Diameter = %d, BFS sweep says %d", got, want)
	}
	if Mesh(4, 7).MeanPathLength() == g.MeanPathLength() {
		t.Fatal("a cut left MeanPathLength at the pristine closed form")
	}
	if st := g.DistStats(); st.FullBuilds == 0 {
		t.Fatalf("mutated mesh metrics did not return to the BFS path: %+v", st)
	}
}
