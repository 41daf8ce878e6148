package topology

import "testing"

// FuzzMeshMetrics builds meshes of fuzzed dimensions and checks the
// structural identities that the cost model depends on.
func FuzzMeshMetrics(f *testing.F) {
	f.Add(uint8(5), uint8(5))
	f.Add(uint8(1), uint8(9))
	f.Add(uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, rw, cw uint8) {
		rows := int(rw%8) + 1
		cols := int(cw%8) + 1
		g := Mesh(rows, cols)
		if g.N() != rows*cols {
			t.Fatalf("n=%d", g.N())
		}
		if g.Links() != 2*rows*cols-rows-cols {
			t.Fatalf("links=%d for %dx%d", g.Links(), rows, cols)
		}
		if !g.Connected() {
			t.Fatal("mesh disconnected")
		}
		if d := g.Diameter(); d != rows+cols-2 {
			t.Fatalf("diameter %d, want %d", d, rows+cols-2)
		}
		// Degree sum equals twice the link count (handshake lemma).
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		if sum != 2*g.Links() {
			t.Fatalf("degree sum %d vs links %d", sum, g.Links())
		}
	})
}
