package attack

import (
	"fmt"

	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
)

// This file holds the link-level fault scenarios: where attack.go takes
// hosts down, these take the network itself apart — link cuts, full
// partitions, and random link churn. They exercise the failure mode the
// paper motivates but never models: REALTOR's soft state must survive a
// mesh that stops being the mesh mid-run.

// LinkCut severs a fixed set of overlay links at At and, if
// Restore > At, heals them at Restore. Only links the cut actually
// removed are restored, so composing LinkCut with other link scenarios
// never conjures links that were already gone.
type LinkCut struct {
	Links   [][2]topology.NodeID
	At      sim.Time
	Restore sim.Time // ≤ At means the links stay down
}

// Name implements Scenario.
func (l LinkCut) Name() string {
	return fmt.Sprintf("link-cut-%d@%g", len(l.Links), float64(l.At))
}

// Apply implements Scenario.
func (l LinkCut) Apply(e Target) {
	links := append([][2]topology.NodeID(nil), l.Links...)
	cut := make([]bool, len(links))
	e.At(l.At, func(sim.Time) {
		for i, lk := range links {
			cut[i] = e.CutLink(lk[0], lk[1])
		}
	})
	if l.Restore > l.At {
		e.At(l.Restore, func(sim.Time) {
			for i, lk := range links {
				if cut[i] {
					e.RestoreLink(lk[0], lk[1])
				}
			}
		})
	}
}

// Partition bisects a Rows×Cols mesh vertically at boundary column Col:
// at At it cuts every link between columns Col-1 and Col, splitting the
// overlay into a left side (columns [0, Col)) and a right side (columns
// [Col, Cols)), and heals the cut at Heal (if > At). This is the
// headline survivability scenario: while split, each side must keep
// admitting with only its own capacity; after the heal, the discovery
// communities must reconverge across the old boundary.
type Partition struct {
	Rows, Cols int
	Col        int // boundary column in [1, Cols-1]
	At         sim.Time
	Heal       sim.Time // ≤ At means the split is permanent
}

// Name implements Scenario.
func (p Partition) Name() string {
	return fmt.Sprintf("partition-col%d@%g", p.Col, float64(p.At))
}

// Links lists the mesh links the bisection severs: one per row, between
// (r, Col-1) and (r, Col).
func (p Partition) Links() [][2]topology.NodeID {
	if p.Rows <= 0 || p.Cols <= 1 || p.Col < 1 || p.Col >= p.Cols {
		panic(fmt.Sprintf("attack: partition boundary col %d outside [1,%d)", p.Col, p.Cols))
	}
	out := make([][2]topology.NodeID, 0, p.Rows)
	for r := 0; r < p.Rows; r++ {
		out = append(out, [2]topology.NodeID{
			topology.NodeID(r*p.Cols + p.Col - 1),
			topology.NodeID(r*p.Cols + p.Col),
		})
	}
	return out
}

// Left reports whether a node sits on the left side of the split.
func (p Partition) Left(id topology.NodeID) bool { return int(id)%p.Cols < p.Col }

// Apply implements Scenario.
func (p Partition) Apply(e Target) {
	LinkCut{Links: p.Links(), At: p.At, Restore: p.Heal}.Apply(e)
}

// LinkChurn flaps random links: every Interval seconds from Start until
// Until, one link drawn (seeded, deterministic) from the overlay's
// current link set is cut and restored Down seconds later. It models an
// unstable network layer — routes dropping and returning — rather than
// a clean partition, and stresses the engine's distance-snapshot
// republication on every mutation.
type LinkChurn struct {
	Start    sim.Time
	Until    sim.Time
	Interval sim.Time
	Down     sim.Time
	Seed     int64
}

// Name implements Scenario.
func (c LinkChurn) Name() string {
	return fmt.Sprintf("link-churn@%g", float64(c.Start))
}

// Apply implements Scenario.
func (c LinkChurn) Apply(e Target) {
	if c.Interval <= 0 || c.Down <= 0 {
		panic("attack: link churn interval and down-time must be positive")
	}
	rnd := rng.New(c.Seed).Derive("link-churn")
	for t := c.Start; t < c.Until; t += c.Interval {
		e.At(t, func(now sim.Time) {
			links := e.LinkList()
			if len(links) == 0 {
				return
			}
			l := links[rnd.Intn(len(links))]
			if !e.CutLink(l[0], l[1]) {
				return
			}
			e.At(now+c.Down, func(sim.Time) {
				e.RestoreLink(l[0], l[1])
			})
		})
	}
}
