package topology

import "testing"

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
