package protocol

import (
	"testing"

	"realtor/internal/sim"
	"realtor/internal/topology"
)

// FuzzPledgeList drives a pledge list with an arbitrary op sequence and
// checks its soft-state invariants: entries are always fresh and
// positive, Best always returns a fitting entry when one exists, and no
// operation corrupts the map.
func FuzzPledgeList(f *testing.F) {
	f.Add([]byte{1, 10, 50, 2, 20, 0, 3, 5, 30})
	f.Add([]byte{0, 0, 0, 255, 255, 255})
	f.Add([]byte{9, 1, 2, 9, 3, 4, 9, 5, 6, 9, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewPledgeList(50)
		now := sim.Time(0)
		for i := 0; i+2 < len(data); i += 3 {
			op, node, val := data[i], topology.NodeID(data[i+1]%16), float64(data[i+2])
			now += sim.Time(op%8) / 2
			switch op % 4 {
			case 0:
				l.Update(now, node, val-64) // can be negative: retraction
			case 1:
				l.Debit(node, val/8)
			case 2:
				l.Remove(node)
			case 3:
				l.Update(now, node, val)
			}
			best, ok := l.Best(now, 5)
			snap := l.Snapshot(now)
			if len(snap) != l.Len(now) {
				t.Fatalf("snapshot/len mismatch: %d vs %d", len(snap), l.Len(now))
			}
			var fits int
			for _, c := range snap {
				if c.Headroom <= 0 {
					t.Fatalf("non-positive entry survived: %+v", c)
				}
				if now-c.At > 50 {
					t.Fatalf("stale entry survived: %+v at now=%v", c, now)
				}
				if c.Headroom >= 5 {
					fits++
				}
			}
			if ok != (fits > 0) {
				t.Fatalf("Best ok=%v but %d fitting entries", ok, fits)
			}
			if ok && best.Headroom < 5 {
				t.Fatalf("Best returned non-fitting %+v", best)
			}
		}
	})
}

// FuzzPledgeListMatchesReference replays arbitrary op sequences, four
// bytes per op, on the rank-on-read list and on the always-ranked
// reference (refPledgeList) and fails at the first read or write whose
// result differs.
func FuzzPledgeListMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 5, 8, 0, 2, 4, 1, 2, 1, 1, 8, 0, 2, 5, 12})
	f.Add([]byte{1, 3, 3, 9, 1, 4, 3, 9, 3, 3, 0, 8, 0, 5, 0, 0, 1, 4, 2, 10})
	f.Add([]byte{0, 0, 5, 1, 0, 1, 5, 1, 0, 2, 5, 1, 0, 0, 2, 2, 0, 1, 1, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]pledgeOp, 0, len(data)/4)
		for i := 0; i+3 < len(data); i += 4 {
			ops = append(ops, pledgeOp{Kind: data[i], Node: data[i+1], Val: data[i+2], Dt: data[i+3]})
		}
		if err := diffPledgeOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}
