package topology

import (
	"testing"

	"realtor/internal/rng"
)

// rebuildWithoutGrid copies g's link set through the generic constructor
// path, so Dist answers from BFS rows instead of the Manhattan formula:
// a from-scratch reference with no incremental state and no grid shape.
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

// TestGridFastPathClearedByMutation: on a mesh at or below eagerDistLimit
// any link mutation retires the grid shape — the eager matrix answers in
// O(1) anyway; distances must then reflect the mutated graph.
func TestGridFastPathClearedByMutation(t *testing.T) {
	g := Mesh(4, 4)
	if g.Dist(0, 1) != 1 {
		t.Fatalf("adjacent mesh nodes: Dist = %d", g.Dist(0, 1))
	}
	g.CutLink(0, 1)
	if g.gridCols != 0 || g.cuts != nil {
		t.Fatalf("small mesh kept its grid through a cut (cols %d, cuts %v)", g.gridCols, g.cuts)
	}
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
	g2.RestoreLink(0, 15) // a pair the grid never had
	if g2.gridCols != 0 {
		t.Fatal("gridCols survived a non-grid RestoreLink")
	}
	if got := g2.Dist(1, 15); got != 2 {
		t.Fatalf("after RestoreLink(0,15) Dist(1,15) = %d, want 2 (1-0-15)", got)
	}
}

// TestLargeMeshKeepsGridThroughCuts: a mesh above eagerDistLimit stays a
// mesh through cuts and heals of its own links — the cut list grows and
// shrinks, distances detour around the cuts — and is pristine again once
// the last cut heals: closed-form Diameter, Reachable without component
// labels. A link the grid never had retires it, outstanding cuts and all.
func TestLargeMeshKeepsGridThroughCuts(t *testing.T) {
	const side = 40 // 1600 nodes
	id := func(r, c int) NodeID { return NodeID(r*side + c) }
	g := Mesh(side, side)
	h := [2]NodeID{id(20, 20), id(20, 21)}
	v := [2]NodeID{id(5, 7), id(6, 7)}
	g.CutLink(h[0], h[1])
	g.CutLink(v[1], v[0]) // either order names the link
	if g.gridCols != side || len(g.cuts) != 2 {
		t.Fatalf("after two cuts: cols %d, cuts %v", g.gridCols, g.cuts)
	}
	for _, l := range [][2]NodeID{h, v} {
		if d := g.Dist(l[0], l[1]); d != 3 {
			t.Fatalf("Dist across cut %v = %d, want 3", l, d)
		}
	}
	ref := rebuildWithoutGrid(g)
	if got, want := g.Diameter(), ref.Diameter(); got != want {
		t.Fatalf("cut mesh Diameter = %d, BFS sweep says %d", got, want)
	}

	c := g.Clone()
	c.CutLink(0, 1)
	if len(g.cuts) != 2 || len(c.cuts) != 3 {
		t.Fatalf("cutting the clone: original lists %d cuts, clone %d; want 2 and 3", len(g.cuts), len(c.cuts))
	}
	if d := g.Dist(0, 1); d != 1 {
		t.Fatalf("original Dist(0,1) = %d after the clone's cut", d)
	}

	g.RestoreLink(v[0], v[1])
	if len(g.cuts) != 1 || g.Dist(v[0], v[1]) != 1 {
		t.Fatalf("after healing %v: cuts %v, Dist %d", v, g.cuts, g.Dist(v[0], v[1]))
	}
	g.RestoreLink(h[1], h[0])
	if g.gridCols != side || len(g.cuts) != 0 {
		t.Fatalf("after the last heal: cols %d, cuts %v", g.gridCols, g.cuts)
	}
	before := g.DistStats()
	if d := g.Diameter(); d != 2*side-2 {
		t.Fatalf("healed mesh Diameter = %d, want %d", d, 2*side-2)
	}
	if !g.Reachable(0, id(side-1, side-1)) || g.comps.Load() != nil {
		t.Fatal("healed mesh Reachable built component labels")
	}
	if st := g.DistStats(); st != before {
		t.Fatalf("healed mesh metrics did BFS work: %+v → %+v", before, st)
	}

	g.CutLink(h[0], h[1])
	g.RestoreLink(0, id(side-1, side-1)) // not a grid link
	if g.gridCols != 0 || g.cuts != nil {
		t.Fatalf("a non-grid RestoreLink kept the grid (cols %d, cuts %v)", g.gridCols, g.cuts)
	}
	if d := g.Dist(id(0, 1), id(side-1, side-1)); d != 2 {
		t.Fatalf("Dist over the new link = %d, want 2", d)
	}
	if d := g.Dist(h[0], h[1]); d != 3 {
		t.Fatalf("Dist across the cut once the grid retired = %d, want 3", d)
	}
}

// boxHoldsCut reports whether some link of cuts has both ends inside the
// bounding box of a and b on a mesh with the given column count.
func boxHoldsCut(cols int, a, b NodeID, cuts [][2]NodeID) bool {
	r0, r1 := min(int(a)/cols, int(b)/cols), max(int(a)/cols, int(b)/cols)
	c0, c1 := min(int(a)%cols, int(b)%cols), max(int(a)%cols, int(b)%cols)
	inside := func(x NodeID) bool {
		r, c := int(x)/cols, int(x)%cols
		return r >= r0 && r <= r1 && c >= c0 && c <= c1
	}
	for _, l := range cuts {
		if inside(l[0]) && inside(l[1]) {
			return true
		}
	}
	return false
}

// TestCutMeshQueryOutsideCutsBuildsNoRows: on a cut mesh above
// eagerDistLimit, a pair whose bounding box holds no cut link is answered
// by the Manhattan formula — exactly, and without building a single
// distance row. Only a blocked pair reads a row.
func TestCutMeshQueryOutsideCutsBuildsNoRows(t *testing.T) {
	const side = 50
	id := func(r, c int) NodeID { return NodeID(r*side + c) }
	g := Mesh(side, side)
	cuts := [][2]NodeID{{id(10, 10), id(10, 11)}, {id(30, 40), id(31, 40)}, {id(45, 5), id(45, 6)}}
	for _, l := range cuts {
		g.CutLink(l[0], l[1])
	}
	ref := rebuildWithoutGrid(g)
	s := rng.New(11)
	free := 0
	for k := 0; k < 2000; k++ {
		a, b := NodeID(s.Intn(g.N())), NodeID(s.Intn(g.N()))
		if boxHoldsCut(side, a, b, cuts) {
			continue
		}
		free++
		if got, want := g.Dist(a, b), ref.Dist(a, b); got != want {
			t.Fatalf("Dist(%d,%d) = %d, BFS says %d", a, b, got, want)
		}
	}
	if free < 1000 {
		t.Fatalf("only %d of 2000 random pairs avoid the cuts", free)
	}
	if st := g.DistStats(); st != (DistStats{}) {
		t.Fatalf("%d queries outside the cuts did distance work: %+v", free, st)
	}
	if d := g.Dist(cuts[0][0], cuts[0][1]); d != 3 {
		t.Fatalf("Dist across a cut = %d, want 3", d)
	}
	if st := g.DistStats(); st.RowBuilds != 1 {
		t.Fatalf("a blocked pair built %d rows, want 1", st.RowBuilds)
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
