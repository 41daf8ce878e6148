package topology

import (
	"testing"

	"realtor/internal/rng"
)

// assertDistancesMatch compares Dist, Connected and ComponentOf between
// the incrementally maintained graph and a freshly built reference.
func assertDistancesMatch(t *testing.T, step int, g, ref *Graph) {
	t.Helper()
	n := g.N()
	if gc, rc := g.Connected(), ref.Connected(); gc != rc {
		t.Fatalf("step %d: Connected()=%v, fresh rebuild says %v", step, gc, rc)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if gd, rd := g.Dist(NodeID(a), NodeID(b)), ref.Dist(NodeID(a), NodeID(b)); gd != rd {
				t.Fatalf("step %d: Dist(%d,%d)=%d, fresh rebuild says %d", step, a, b, gd, rd)
			}
		}
	}
	for a := 0; a < n; a++ {
		gc, rc := g.ComponentOf(NodeID(a)), ref.ComponentOf(NodeID(a))
		if len(gc) != len(rc) {
			t.Fatalf("step %d: ComponentOf(%d) sizes %d vs %d", step, a, len(gc), len(rc))
		}
		for i := range gc {
			if gc[i] != rc[i] {
				t.Fatalf("step %d: ComponentOf(%d)[%d]=%d, fresh rebuild says %d",
					step, a, i, gc[i], rc[i])
			}
		}
	}
}

// assertCarriedExactly checks the dirty-set rules from both sides: the
// snapshot published by a mutation shares a row with old (the fully
// materialised pre-mutation snapshot) exactly when that row still equals
// a fresh rebuild. A stale carry is a correctness bug; a row dropped
// though unchanged is the over-approximation the exact cut rule removed.
// When the whole snapshot was dropped instead, at least three quarters
// of the rows must really have changed.
func assertCarriedExactly(t *testing.T, step int, g *Graph, old *distMatrix, ref *Graph) {
	t.Helper()
	n := g.N()
	changed := make([]bool, n)
	nChanged := 0
	for s := 0; s < n; s++ {
		for j, d := range *old.rows[s].Load() {
			if d != ref.Dist(NodeID(s), NodeID(j)) {
				changed[s] = true
				nChanged++
				break
			}
		}
	}
	m := g.dist.Load()
	if m == nil {
		if nChanged*4 < n*3 {
			t.Fatalf("step %d: snapshot dropped though only %d of %d rows changed", step, nChanged, n)
		}
		return
	}
	for s := 0; s < n; s++ {
		carried := m.rows[s].Load() == old.rows[s].Load()
		if carried == changed[s] {
			t.Fatalf("step %d: row %d carried=%v but changed=%v", step, s, carried, changed[s])
		}
	}
}

// TestIncrementalDistanceChurnProperty applies random CutLink/RestoreLink
// churn and asserts after every single mutation that the incrementally
// maintained snapshot agrees exactly with a from-scratch rebuild, and
// that the mutation carried exactly the rows it left unchanged — no
// stale row kept, no unchanged row rebuilt, for cuts and restores alike.
func TestIncrementalDistanceChurnProperty(t *testing.T) {
	builders := []struct {
		name string
		g    func() *Graph
	}{
		{"mesh4x4", func() *Graph { return Mesh(4, 4) }},
		{"mesh3x6", func() *Graph { return Mesh(3, 6) }},
		{"torus3x4", func() *Graph { return Torus(3, 4) }},
		{"ring7", func() *Graph { return Ring(7) }},
		{"random12", func() *Graph { return Random(12, 0.3, rng.New(99)) }},
	}
	for _, tc := range builders {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g()
			all := g.LinkList() // full link universe for this topology
			if len(all) == 0 {
				t.Skip("no links")
			}
			down := make(map[[2]NodeID]bool)
			s := rng.New(42)
			// Warm the cache so mutations exercise the incremental path
			// (a cold cache would just defer everything to first query).
			g.Dist(0, NodeID(g.N()-1))
			for step := 0; step < 120; step++ {
				l := all[s.Intn(len(all))]
				old := g.ensureDist() // fully materialised: these graphs are eager
				if down[l] {
					if !g.RestoreLink(l[0], l[1]) {
						t.Fatalf("step %d: RestoreLink%v failed", step, l)
					}
					delete(down, l)
				} else {
					if !g.CutLink(l[0], l[1]) {
						t.Fatalf("step %d: CutLink%v failed", step, l)
					}
					down[l] = true
				}
				ref := rebuildWithoutGrid(g)
				assertCarriedExactly(t, step, g, old, ref)
				assertDistancesMatch(t, step, g, ref)
			}
		})
	}
}

// TestIncrementalDistanceLazyRows exercises the memory-bounded large-N
// path (> eagerDistLimit nodes): rows materialize on demand, and churn
// correctness must hold there too. Distances are spot-checked (the full
// N² sweep would dominate test time) against a fresh rebuild. The mesh is
// a grid-less copy: a Mesh this size would answer these probes from the
// Manhattan formula whenever their box avoids the cuts, and the subject
// here is the lazy-row carry that tori, rings and random graphs still use.
func TestIncrementalDistanceLazyRows(t *testing.T) {
	g := rebuildWithoutGrid(Mesh(36, 36)) // 1296 > eagerDistLimit
	if g.N() <= eagerDistLimit {
		t.Fatalf("test graph too small (%d nodes) for the lazy path", g.N())
	}
	all := g.LinkList()
	s := rng.New(7)
	probes := [][2]NodeID{{0, NodeID(g.N() - 1)}, {5, 600}, {1295, 36}, {700, 701}}
	for _, p := range probes {
		g.Dist(p[0], p[1]) // warm a few rows
	}
	down := make(map[[2]NodeID]bool)
	for step := 0; step < 40; step++ {
		l := all[s.Intn(len(all))]
		if down[l] {
			g.RestoreLink(l[0], l[1])
			delete(down, l)
		} else {
			g.CutLink(l[0], l[1])
			down[l] = true
		}
		ref := rebuildWithoutGrid(g)
		for _, p := range probes {
			if gd, rd := g.Dist(p[0], p[1]), ref.Dist(p[0], p[1]); gd != rd {
				t.Fatalf("step %d: Dist(%d,%d)=%d, fresh rebuild says %d",
					step, p[0], p[1], gd, rd)
			}
		}
		if gc, rc := g.Connected(), ref.Connected(); gc != rc {
			t.Fatalf("step %d: Connected()=%v, fresh rebuild says %v", step, gc, rc)
		}
	}
	if st := g.DistStats(); st.FullBuilds != 0 {
		t.Fatalf("lazy path performed %d full all-pairs builds; want 0", st.FullBuilds)
	}
}

// TestLargeMeshChurnAvoidsFullRebuild is the scalability acceptance
// criterion: on a 50×50 (2500-node) mesh, link churn must never trigger
// a full all-pairs rebuild, and per-fault row recomputation must stay
// bounded by what is actually queried rather than O(N) BFS sweeps. Like
// TestIncrementalDistanceLazyRows it runs on a grid-less copy, so every
// query reads the lazily carried rows.
func TestLargeMeshChurnAvoidsFullRebuild(t *testing.T) {
	g := rebuildWithoutGrid(Mesh(50, 50))
	// Typical engine usage: a handful of distance queries between faults.
	g.Dist(0, 2499)
	g.Dist(1250, 49)

	all := g.LinkList()
	s := rng.New(3)
	const faults = 200
	for i := 0; i < faults; i++ {
		l := all[s.Intn(len(all))]
		if g.HasLink(l[0], l[1]) {
			g.CutLink(l[0], l[1])
		} else {
			g.RestoreLink(l[0], l[1])
		}
		// The engine's partition check after each fault: a couple of
		// point queries, not a full matrix scan.
		g.Dist(l[0], l[1])
	}
	st := g.DistStats()
	if st.FullBuilds != 0 {
		t.Fatalf("churn at N=2500 triggered %d full all-pairs rebuilds; want 0", st.FullBuilds)
	}
	// Row work must be per-query, not per-fault×N: a fault builds at most
	// the two pre-mutation and (for a cut) two post-mutation endpoint
	// rows, and the query afterwards hits a row the cut just published —
	// far below the N rows a single eager rebuild would pay per fault.
	if max := uint64(faults * 4); st.RowBuilds > max {
		t.Fatalf("churn at N=2500 built %d rows; want ≤ %d (bounded by queries, not N)",
			st.RowBuilds, max)
	}
	if st.RowsCarried == 0 {
		t.Fatal("no rows carried across mutations; incremental maintenance inactive")
	}
}

// TestDistStatsCountsEagerBuild pins the small-graph eager path: queries
// on a pristine mesh ride the O(1) grid formula and build nothing; a
// mutation drops the formula but, with no row materialised to carry,
// spends no BFS either, so a burst of faults coalesces into a single
// full build at the next query instead of paying one per fault.
func TestDistStatsCountsEagerBuild(t *testing.T) {
	g := Mesh(5, 5)
	g.Dist(0, 24)
	st := g.DistStats()
	if st.FullBuilds != 0 || st.RowBuilds != 0 {
		t.Fatalf("pristine-mesh query did distance work: %+v", st)
	}
	// A burst of three faults with no queries in between: the old code
	// paid three full rebuilds here; now none happen until the query.
	g.CutLink(0, 1)
	g.CutLink(5, 6)
	g.CutLink(12, 13)
	if st = g.DistStats(); st.FullBuilds != 0 {
		t.Fatalf("FullBuilds=%d right after faults, want still 0 (deferred)", st.FullBuilds)
	}
	if d := g.Dist(0, 24); d != 8 {
		t.Fatalf("Dist(0,24)=%d after cuts, want 8", d)
	}
	if st = g.DistStats(); st.FullBuilds != 1 {
		t.Fatalf("FullBuilds=%d after post-burst query, want 1 (coalesced)", st.FullBuilds)
	}
}

// TestMutationCarriesRowsAcrossComponents pins the carried-row path: a
// cut inside one component cannot change distances measured from the
// other component, so those rows are shared with the previous snapshot.
func TestMutationCarriesRowsAcrossComponents(t *testing.T) {
	g := NewGraph(10) // ring 0..4 plus line 5..9, disjoint
	for i := 0; i < 5; i++ {
		g.AddLink(NodeID(i), NodeID((i+1)%5))
	}
	for i := 5; i < 9; i++ {
		g.AddLink(NodeID(i), NodeID(i+1))
	}
	g.Dist(0, 4) // materialize
	base := g.DistStats()
	g.CutLink(7, 8) // inside the line: ring rows are provably clean
	st := g.DistStats()
	if st.FullBuilds != base.FullBuilds {
		t.Fatalf("FullBuilds grew %d→%d on a clean-side cut", base.FullBuilds, st.FullBuilds)
	}
	if st.RowsCarried == 0 {
		t.Fatal("no rows carried across a cut that leaves another component untouched")
	}
	// Correctness after the carry.
	assertDistancesMatch(t, 0, g, rebuildWithoutGrid(g))
}

// TestMeshCutDirtiesOneLine pins the bipartite-mesh case the exact cut
// rule exists for: adjacent mesh nodes have opposite parity, so the old
// rule |d(s,a) − d(s,b)| = 1 held for every source and each cut dropped
// all N rows. A mid-mesh cut really changes only the rows of the sources
// in line with the link (they alone have no equal-length detour), and
// costs two BFS — the post-cut rows of the endpoints, published at once.
func TestMeshCutDirtiesOneLine(t *testing.T) {
	const rows, cols = 50, 50
	g := rebuildWithoutGrid(Mesh(rows, cols))
	n := g.N()
	for s := 0; s < n; s++ {
		g.Dist(NodeID(s), 0)
	}
	before := g.DistStats()
	if before.RowBuilds != uint64(n) {
		t.Fatalf("materialised %d rows, want %d", before.RowBuilds, n)
	}
	a, b := NodeID(25*cols+25), NodeID(25*cols+26)
	g.CutLink(a, b)
	st := g.DistStats()
	if got := st.RowsCarried - before.RowsCarried; got < uint64(n-cols) {
		t.Fatalf("mid-mesh cut carried %d rows, want ≥ %d", got, n-cols)
	}
	if got := st.RowBuilds - before.RowBuilds; got > 2 {
		t.Fatalf("mid-mesh cut built %d rows, want ≤ 2", got)
	}
	if d := g.Dist(a, b); d != 3 {
		t.Fatalf("Dist across the cut = %d, want 3", d)
	}
	if got := g.DistStats().RowBuilds - before.RowBuilds; got != 2 {
		t.Fatalf("row of a cut endpoint was not published by the cut (%d builds)", got)
	}
	ref := rebuildWithoutGrid(g)
	for _, s := range []NodeID{0, a, b, a - 5, b + 5, a - cols, NodeID(n - 1)} {
		for j := 0; j < n; j++ {
			if gd, rd := g.Dist(s, NodeID(j)), ref.Dist(s, NodeID(j)); gd != rd {
				t.Fatalf("Dist(%d,%d)=%d, fresh rebuild says %d", s, j, gd, rd)
			}
		}
	}
}

// TestRingCutFallsBack: a ring link is as good as a bridge — cutting it
// changes nearly every row — so the ≥ 75 % fallback drops the snapshot
// rather than carry a sliver of it, and distances are still exact.
func TestRingCutFallsBack(t *testing.T) {
	g := Ring(64)
	g.Dist(0, 32)
	g.CutLink(10, 11)
	if g.dist.Load() != nil {
		t.Fatal("ring cut kept a snapshot; want the fallback to drop it")
	}
	if d := g.Dist(10, 11); d != 63 {
		t.Fatalf("Dist(10,11)=%d after the cut, want 63 (the long way round)", d)
	}
	assertDistancesMatch(t, 0, g, rebuildWithoutGrid(g))
	g.CutLink(40, 41) // now a genuine bridge: the path splits
	if g.Reachable(10, 11) || !g.Reachable(11, 40) {
		t.Fatal("Reachable disagrees with the two arcs a second cut leaves")
	}
	assertDistancesMatch(t, 1, g, rebuildWithoutGrid(g))
}
