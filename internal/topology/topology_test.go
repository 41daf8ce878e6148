package topology

import (
	"sync"
	"testing"
	"testing/quick"

	"realtor/internal/rng"
)

func TestPaperMesh(t *testing.T) {
	g := Mesh(5, 5)
	if g.N() != 25 {
		t.Fatalf("mesh 5x5 has %d nodes, want 25", g.N())
	}
	if g.Links() != 40 {
		t.Fatalf("mesh 5x5 has %d links, want 40 (paper Fig. 4)", g.Links())
	}
	if !g.Connected() {
		t.Fatal("mesh disconnected")
	}
	if d := g.Diameter(); d != 8 {
		t.Fatalf("mesh 5x5 diameter %d, want 8", d)
	}
	// The paper rounds the mean shortest path to 4; the exact value is
	// 10/3 ≈ 3.33.
	if m := g.MeanPathLength(); m < 3.2 || m > 3.5 {
		t.Fatalf("mesh 5x5 mean path %.3f, want ≈3.33", m)
	}
}

func TestMeshLinkCountFormula(t *testing.T) {
	for _, tc := range []struct{ r, c int }{{1, 1}, {2, 3}, {3, 3}, {4, 6}, {8, 8}} {
		g := Mesh(tc.r, tc.c)
		want := 2*tc.r*tc.c - tc.r - tc.c
		if g.Links() != want {
			t.Fatalf("mesh %dx%d links = %d, want %d", tc.r, tc.c, g.Links(), want)
		}
		if g.N() > 1 && !g.Connected() {
			t.Fatalf("mesh %dx%d disconnected", tc.r, tc.c)
		}
	}
}

func TestMeshCornerDegrees(t *testing.T) {
	g := Mesh(5, 5)
	deg := g.Degrees() // sorted
	// 4 corners of degree 2, 12 edge nodes of degree 3, 9 interior degree 4.
	counts := map[int]int{}
	for _, d := range deg {
		counts[d]++
	}
	if counts[2] != 4 || counts[3] != 12 || counts[4] != 9 {
		t.Fatalf("degree distribution %v", counts)
	}
}

func TestTorus(t *testing.T) {
	g := Torus(4, 5)
	if g.N() != 20 || g.Links() != 40 {
		t.Fatalf("torus 4x5: n=%d links=%d", g.N(), g.Links())
	}
	for _, d := range g.Degrees() {
		if d != 4 {
			t.Fatalf("torus node degree %d, want 4", d)
		}
	}
}

func TestRing(t *testing.T) {
	g := Ring(10)
	if g.Links() != 10 {
		t.Fatalf("ring links %d", g.Links())
	}
	if d := g.Diameter(); d != 5 {
		t.Fatalf("ring-10 diameter %d, want 5", d)
	}
}

func TestStar(t *testing.T) {
	g := Star(9)
	if g.Links() != 8 {
		t.Fatalf("star links %d", g.Links())
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("star diameter %d, want 2", d)
	}
	for leaf := NodeID(1); leaf < 9; leaf++ {
		if d := g.Dist(0, leaf); d != 1 {
			t.Fatalf("hub to leaf %d: Dist %d, want 1", leaf, d)
		}
	}
}

func TestComplete(t *testing.T) {
	g := Complete(7)
	if g.Links() != 21 {
		t.Fatalf("K7 links %d, want 21", g.Links())
	}
	if g.Diameter() != 1 {
		t.Fatalf("K7 diameter %d", g.Diameter())
	}
	if m := g.MeanPathLength(); m != 1 {
		t.Fatalf("K7 mean path %v", m)
	}
}

func TestRandomConnected(t *testing.T) {
	s := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		g := Random(30, 0.05, s)
		if !g.Connected() {
			t.Fatalf("random graph disconnected on trial %d", trial)
		}
		if g.Links() < 29 {
			t.Fatalf("random graph fewer links than a tree: %d", g.Links())
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	g1 := Random(20, 0.1, rng.New(5))
	g2 := Random(20, 0.1, rng.New(5))
	if g1.Links() != g2.Links() {
		t.Fatal("random graph not deterministic for fixed seed")
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if g1.HasLink(NodeID(i), NodeID(j)) != g2.HasLink(NodeID(i), NodeID(j)) {
				t.Fatal("random graphs differ for fixed seed")
			}
		}
	}
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph(3).AddLink(1, 1)
}

func TestDuplicateLinkPanics(t *testing.T) {
	g := NewGraph(3)
	g.AddLink(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddLink(1, 0)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph(3).AddLink(0, 7)
}

func TestDistUnreachable(t *testing.T) {
	g := NewGraph(4)
	g.AddLink(0, 1)
	g.AddLink(2, 3)
	if g.Dist(0, 3) != -1 {
		t.Fatalf("dist across components = %d, want -1", g.Dist(0, 3))
	}
	if g.Connected() {
		t.Fatal("two-component graph reported connected")
	}
	if g.Diameter() != -1 {
		t.Fatal("diameter of disconnected graph should be -1")
	}
}

func TestDistCacheInvalidation(t *testing.T) {
	g := NewGraph(3)
	g.AddLink(0, 1)
	if g.Dist(0, 2) != -1 {
		t.Fatal("unexpected reachability")
	}
	g.AddLink(1, 2)
	if g.Dist(0, 2) != 2 {
		t.Fatalf("dist after AddLink = %d, want 2", g.Dist(0, 2))
	}
}

func TestClone(t *testing.T) {
	g := Mesh(4, 4)
	c := g.Clone()
	if c.N() != g.N() || c.Links() != g.Links() {
		t.Fatal("clone shape mismatch")
	}
	c.CutLink(5, 6)
	if g.Links() != 24 || !g.HasLink(5, 6) {
		t.Fatal("mutating clone affected original")
	}
}

// Property: BFS distances satisfy the metric axioms on meshes — symmetry,
// identity, and the triangle inequality.
func TestQuickDistanceMetric(t *testing.T) {
	g := Mesh(6, 6)
	n := g.N()
	f := func(a, b, c uint8) bool {
		x, y, z := NodeID(int(a)%n), NodeID(int(b)%n), NodeID(int(c)%n)
		dxy, dyx := g.Dist(x, y), g.Dist(y, x)
		if dxy != dyx {
			return false
		}
		if g.Dist(x, x) != 0 {
			return false
		}
		return g.Dist(x, z) <= g.Dist(x, y)+g.Dist(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a mesh, graph distance equals Manhattan distance between
// grid coordinates.
func TestQuickMeshManhattan(t *testing.T) {
	const rows, cols = 5, 7
	g := Mesh(rows, cols)
	f := func(a, b uint8) bool {
		x, y := int(a)%(rows*cols), int(b)%(rows*cols)
		manhattan := abs(x/cols-y/cols) + abs(x%cols-y%cols)
		return g.Dist(NodeID(x), NodeID(y)) == manhattan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: adjacency is symmetric in every builder.
func TestQuickAdjacencySymmetry(t *testing.T) {
	graphs := []*Graph{Mesh(4, 5), Torus(4, 4), Ring(9), Star(6), Complete(5),
		Random(15, 0.2, rng.New(3))}
	for gi, g := range graphs {
		for i := 0; i < g.N(); i++ {
			for _, nb := range g.Neighbors(NodeID(i)) {
				found := false
				for _, back := range g.Neighbors(nb) {
					if back == NodeID(i) {
						found = true
					}
				}
				if !found {
					t.Fatalf("graph %d: asymmetric adjacency %d->%d", gi, i, nb)
				}
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func BenchmarkAPSPMesh10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := Mesh(10, 10)
		_ = g.MeanPathLength()
	}
}

// The distance cache and the component labels must be safe for
// concurrent first-use: the parallel experiment runner shares one Graph
// across engines, and the very first queries race to build them. Run
// with -race; before the cache moved behind an atomic snapshot this both
// raced and could read partially published rows.
func TestConcurrentDistQueriesColdCache(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		// Fresh graph: cold caches every trial. Built without the grid
		// flag, or the O(1) mesh paths would answer and nothing race.
		g := rebuildWithoutGrid(Mesh(6, 6))
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < g.N(); i++ {
					for j := 0; j < g.N(); j++ {
						if d := g.Dist(NodeID(i), NodeID(j)); d < 0 || !g.Reachable(NodeID(i), NodeID(j)) {
							errs <- "unreachable pair in connected mesh"
							return
						}
					}
				}
				if g.Diameter() != 10 {
					errs <- "wrong 6x6 mesh diameter"
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
