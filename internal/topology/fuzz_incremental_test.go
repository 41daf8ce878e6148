package topology

import (
	"testing"

	"realtor/internal/rng"
)

// FuzzCutMeshEqualsBFS drives a mesh above eagerDistLimit — which keeps
// its grid shape through cuts and heals, answering Dist from the
// Manhattan formula wherever no cut lies in a pair's bounding box —
// through fuzz-chosen cut/restore sequences, and after every step checks
// Dist and Reachable against a grid-less copy (BFS rows and component
// labels only). It checks every pair in the 7×7 window around each end of
// a cut link and of the link just touched, where the cut-in-box rule
// decides, plus 200 seeded random pairs, whose boxes are large. Every
// eighth step and after the last it also compares Connected, Diameter and
// MeanPathLength, which leave their closed forms while a cut is down.
//
// Each op is two bytes: the top bit of the first selects restore (1) or
// cut (0), the other 15 bits pick a link of the pristine mesh (mod the
// link count). Repeated cuts and restores of live links are deliberately
// generated — the mutators must be idempotent.
func FuzzCutMeshEqualsBFS(f *testing.F) {
	// 1089 nodes: the smallest square mesh above eagerDistLimit.
	const side = 33
	f.Add([]byte{0x03, 0xe8})                                                 // one mid-mesh cut
	f.Add([]byte{0x03, 0xe8, 0x03, 0xe8, 0x83, 0xe8, 0x83, 0xe8, 0x83, 0xe9}) // repeat cut, heal, repeat and stray heals
	f.Add([]byte{0x03, 0xe8, 0x03, 0xe9, 0x03, 0xea, 0x03, 0xeb, 0x03, 0xec, 0x03, 0xed,
		0x03, 0xee, 0x03, 0xef, 0x83, 0xea, 0x83, 0xe8}) // a wall of cuts, partly healed
	f.Add([]byte{0x08, 0x3f, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x01}) // far corner cut, then corner 0 cut off
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 32 {
			ops = ops[:32] // 16 steps of O(window pairs + N²) checks
		}
		g := Mesh(side, side)
		n := g.N()
		if n <= eagerDistLimit {
			t.Fatalf("test mesh too small (%d nodes) for the cut-list path", n)
		}
		pristine := g.LinkList()
		pairs := rng.New(1)
		for i := 0; i+1 < len(ops); i += 2 {
			step := i / 2
			l := pristine[(int(ops[i]&0x7f)<<8|int(ops[i+1]))%len(pristine)]
			if ops[i]&0x80 == 0 {
				g.CutLink(l[0], l[1])
			} else {
				g.RestoreLink(l[0], l[1])
			}
			if g.gridCols != side || len(g.cuts) != len(pristine)-g.Links() {
				t.Fatalf("step %d: grid %d with %d cuts listed for %d links down",
					step, g.gridCols, len(g.cuts), len(pristine)-g.Links())
			}
			ref := rebuildWithoutGrid(g)
			check := func(a, b NodeID) {
				got, want := g.Dist(a, b), ref.Dist(a, b)
				if got != want {
					t.Fatalf("step %d (link %v): Dist(%d,%d) = %d, BFS says %d; cuts %v",
						step, l, a, b, got, want, g.cuts)
				}
				if r := g.Reachable(a, b); r != ref.Reachable(a, b) || r != (got >= 0) {
					t.Fatalf("step %d (link %v): Reachable(%d,%d) = %v, BFS dist %d",
						step, l, a, b, r, want)
				}
			}
			ends := []NodeID{l[0], l[1]}
			for _, c := range g.cuts {
				ends = append(ends, NodeID(c.r0*side+c.c0), NodeID(c.r1*side+c.c1))
			}
			for _, e := range ends {
				var win []NodeID
				er, ec := int(e)/side, int(e)%side
				for r := max(er-3, 0); r <= min(er+3, side-1); r++ {
					for c := max(ec-3, 0); c <= min(ec+3, side-1); c++ {
						win = append(win, NodeID(r*side+c))
					}
				}
				for _, a := range win {
					for _, b := range win {
						check(a, b)
					}
				}
			}
			for k := 0; k < 200; k++ {
				check(NodeID(pairs.Intn(n)), NodeID(pairs.Intn(n)))
			}
			if step%8 == 7 || i+3 >= len(ops) {
				if got, want := g.Connected(), ref.Connected(); got != want {
					t.Fatalf("step %d: Connected = %v, BFS says %v", step, got, want)
				}
				if got, want := g.Diameter(), ref.Diameter(); got != want {
					t.Fatalf("step %d: Diameter = %d, BFS says %d", step, got, want)
				}
				if got, want := g.MeanPathLength(), ref.MeanPathLength(); got != want {
					t.Fatalf("step %d: MeanPathLength = %v, BFS says %v", step, got, want)
				}
			}
		}
	})
}

// FuzzCutRestoreEqualsRebuild drives the incremental distance
// maintenance through fuzz-chosen cut/restore sequences and checks the
// maintained all-pairs matrix against a graph rebuilt from scratch with
// the same surviving link set. This is the structural oracle for the
// large-mesh optimisation: however the dirty-set analysis shortcuts the
// recomputation, the result must equal a full rebuild.
//
// Each op byte selects a link of the pristine mesh (low 7 bits, mod the
// link count) and an action (high bit: 0 cut, 1 restore). Restores of
// live links and cuts of dead ones are deliberately generated — the
// mutators must be idempotent.
func FuzzCutRestoreEqualsRebuild(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x83, 0x03})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add([]byte{0x10, 0x91, 0x12, 0x93, 0x14, 0x95})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64] // O(ops · n²) oracle: keep iterations snappy
		}
		g := Mesh(4, 4)
		pristine := g.LinkList()
		for i, op := range ops {
			l := pristine[int(op&0x7f)%len(pristine)]
			if op&0x80 == 0 {
				g.CutLink(l[0], l[1])
			} else {
				g.RestoreLink(l[0], l[1])
			}

			fresh := NewGraph(g.N())
			for _, lk := range g.LinkList() {
				fresh.AddLink(lk[0], lk[1])
			}
			if g.Links() != fresh.Links() {
				t.Fatalf("op %d: link count %d vs rebuild %d", i, g.Links(), fresh.Links())
			}
			for a := 0; a < g.N(); a++ {
				for b := 0; b < g.N(); b++ {
					got := g.Dist(NodeID(a), NodeID(b))
					want := fresh.Dist(NodeID(a), NodeID(b))
					if got != want {
						t.Fatalf("op %d (byte %#x on link %v): dist(%d,%d) = %d, rebuild says %d",
							i, op, l, a, b, got, want)
					}
					// Component labels and BFS rows are separate
					// algorithms; they must agree on reachability.
					if r := g.Reachable(NodeID(a), NodeID(b)); r != (got >= 0) {
						t.Fatalf("op %d (byte %#x on link %v): Reachable(%d,%d) = %v but dist = %d",
							i, op, l, a, b, r, got)
					}
				}
			}
		}
	})
}
