// Package topology models the application-level overlay network on which
// resource discovery runs.
//
// The paper's simulation uses the 5×5 mesh of Figure 4 (25 nodes, 40
// links) and charges a HELP/advertisement flood the number of links and a
// unicast PLEDGE the mean shortest-path length (4 on that mesh). This
// package provides the graph representation, the mesh builder plus several
// alternative builders used by the scalability and robustness extensions,
// and the path metrics that feed the cost model.
package topology

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"realtor/internal/rng"
)

// NodeID identifies a node in a topology. IDs are dense: 0..N-1.
type NodeID int

// Graph is an undirected overlay graph. Construct one with a builder
// (Mesh, Torus, ...) or NewGraph + AddLink; mutating after calling path
// queries is allowed — caches invalidate automatically.
//
// Concurrency: path queries (Dist, Diameter, Reachable, ...) are safe to
// call from multiple goroutines — the distance cache is a snapshot behind
// an atomic pointer whose rows are themselves published atomically
// (computed on demand, CAS'd in, immutable afterwards), and the component
// labels are an immutable value behind another, so the parallel
// experiment runner may share one Graph across engines. Mutators (AddLink,
// CutLink, RestoreLink) are NOT safe to run concurrently with queries or
// each other; mutate only during single-threaded setup or inside a single
// engine's event loop. The engine never mutates a shared
// graph: its CutLink/RestoreLink copy-on-write a private clone first, so
// pristine graphs shared across parallel experiment cells stay frozen.
type Graph struct {
	n     int
	adj   [][]NodeID
	links int

	// gridCols, when positive, marks the graph as a rows×cols mesh (node
	// (r,c) has ID r*cols+c) whose links are exactly the grid links minus
	// those listed in cuts, so Dist can answer with the Manhattan formula
	// in O(1) — no distance rows at all. On a 100k-node mesh the
	// difference is structural: overlay protocols unicast between
	// ring-random pairs, so lazily materializing a row per sender would
	// cost O(N) time and ~N·8 bytes of memory each (terabyte-scale in
	// aggregate). A mutation that leaves the grid's link set clears the
	// flag; distances then come from BFS rows again.
	gridCols int

	// cuts lists the grid links currently cut. Only a mesh above
	// eagerDistLimit records cuts; on a smaller one CutLink clears
	// gridCols instead, because its eager matrix already answers in O(1).
	// Dist keeps the formula for every pair whose bounding box holds no
	// cut link (see Dist); the whole-graph closed forms hold only while
	// cuts is empty. Written by CutLink/RestoreLink only.
	cuts []gridLink

	// dist is the current distance snapshot; nil until first use.
	dist atomic.Pointer[distMatrix]

	// comps is the connected-component labelling of the current link set;
	// nil until first use and after every mutation (see components).
	comps atomic.Pointer[components]

	// Recomputation-effort counters (see DistStats). Atomic because row
	// fills may race between concurrent readers of a shared graph.
	fullBuilds  atomic.Uint64
	rowBuilds   atomic.Uint64
	rowsCarried atomic.Uint64
}

// eagerDistLimit bounds the eager path: graphs up to this many nodes get
// their full all-pairs matrix materialized on first query (one backing
// array, best cache locality — the paper-scale setting). Larger graphs
// use the memory-bounded path: rows are computed one source at a time,
// on demand, so a 2500-node mesh never pays the O(N²) matrix unless every
// row is actually queried.
const eagerDistLimit = 1024

// distMatrix is a distance snapshot. Each row is immutable once
// published: rows[i] atomically holds *[]int where (*rows[i])[j] is the
// hop count from i to j, -1 if unreachable. A nil row has not been
// computed for this snapshot yet — readers compute it on demand from the
// current adjacency and CAS it in (racers produce identical rows, so
// whichever wins is correct). filled counts published rows.
//
// Mutations (CutLink/RestoreLink) publish a NEW snapshot that carries
// over the row pointers of exactly the sources whose rows did not change
// (see afterCut/afterRestore) and leaves the changed ones nil, to be
// re-BFS'd only if queried.
type distMatrix struct {
	rows   []atomic.Pointer[[]int]
	filled atomic.Int64
}

// row returns snapshot row i, computing and publishing it on first use.
func (g *Graph) row(m *distMatrix, i NodeID) []int {
	if p := m.rows[i].Load(); p != nil {
		return *p
	}
	r := make([]int, g.n)
	g.bfs(i, r)
	g.rowBuilds.Add(1)
	if !m.rows[i].CompareAndSwap(nil, &r) {
		return *m.rows[i].Load() // concurrent racer won with an identical row
	}
	m.filled.Add(1)
	return r
}

// DistStats reports how much distance-recomputation work this graph has
// performed, for tests and perf introspection. FullBuilds counts complete
// all-pairs builds, RowBuilds single-source BFS row fills, and
// RowsCarried rows shared unchanged across a link-mutation snapshot
// (work avoided by the incremental maintenance).
type DistStats struct {
	FullBuilds  uint64
	RowBuilds   uint64
	RowsCarried uint64
}

// DistStats returns the current recomputation counters.
func (g *Graph) DistStats() DistStats {
	return DistStats{
		FullBuilds:  g.fullBuilds.Load(),
		RowBuilds:   g.rowBuilds.Load(),
		RowsCarried: g.rowsCarried.Load(),
	}
}

// NewGraph returns a graph with n isolated nodes.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic("topology: graph must have at least one node")
	}
	return &Graph{n: n, adj: make([][]NodeID, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Links returns the number of undirected links.
func (g *Graph) Links() int { return g.links }

// Neighbors returns the adjacency list of id. Callers must not mutate it.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	return g.adj[id]
}

// HasLink reports whether an undirected link {a, b} exists.
func (g *Graph) HasLink(a, b NodeID) bool {
	for _, v := range g.adj[a] {
		if v == b {
			return true
		}
	}
	return false
}

// AddLink inserts the undirected link {a, b}. Self-links and duplicates
// panic: every builder in this repository is expected to produce simple
// graphs, and silently ignoring duplicates would corrupt Links-based cost
// accounting.
func (g *Graph) AddLink(a, b NodeID) {
	if a == b {
		panic(fmt.Sprintf("topology: self-link at node %d", a))
	}
	if a < 0 || b < 0 || int(a) >= g.n || int(b) >= g.n {
		panic(fmt.Sprintf("topology: link {%d,%d} out of range [0,%d)", a, b, g.n))
	}
	if g.HasLink(a, b) {
		panic(fmt.Sprintf("topology: duplicate link {%d,%d}", a, b))
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.links++
	g.linksChanged()
	g.dist.Store(nil)
}

// linksChanged drops everything derived from the link set's shape other
// than distance rows, which each mutator republishes itself.
func (g *Graph) linksChanged() {
	g.gridCols, g.cuts = 0, nil
	g.comps.Store(nil)
}

// gridLink is a grid link given by the (row, col) coordinates of its two
// ends, the lower ID first: the other end is (r0, c0+1) or (r0+1, c0).
type gridLink struct{ r0, c0, r1, c1 int }

// gridLinkOf returns the grid coordinates of the link {a, b}.
func (g *Graph) gridLinkOf(a, b NodeID) gridLink {
	lo, hi := int(min(a, b)), int(max(a, b))
	return gridLink{lo / g.gridCols, lo % g.gridCols, hi / g.gridCols, hi % g.gridCols}
}

// isPristineGrid reports whether the graph is a whole mesh, no link cut:
// the case the whole-graph closed forms hold for.
func (g *Graph) isPristineGrid() bool {
	return g.gridCols > 0 && len(g.cuts) == 0
}

// CutLink severs the undirected link {a, b} mid-run, if present, and
// reports whether anything changed. Unlike AddLink it does not panic on
// a missing link: link-fault injectors race heals against cuts, and a
// repeated cut is a no-op, not a bug. A fresh immutable distance snapshot
// is atomically republished on every effective mutation, so readers never
// observe a stale or half-built matrix — pairs split apart report
// Dist == -1 from the instant the cut lands. The new snapshot is built
// incrementally: every row the cut leaves unchanged is shared with the
// previous snapshot, rows a and b are published fresh, and the other
// changed rows are re-derived lazily on demand (see afterCut). A mesh
// above eagerDistLimit stays a mesh: the cut joins its cut list, and
// only pairs the cut can lengthen read the snapshot (see Dist).
func (g *Graph) CutLink(a, b NodeID) bool {
	g.CheckPair(a, b)
	if !g.HasLink(a, b) {
		return false
	}
	old, ra, rb := g.rowsBefore(a, b)
	g.adj[a] = remove(g.adj[a], b)
	g.adj[b] = remove(g.adj[b], a)
	g.links--
	if g.gridCols > 0 && g.n > eagerDistLimit {
		g.cuts = append(g.cuts, g.gridLinkOf(a, b))
		g.comps.Store(nil)
	} else {
		g.linksChanged()
	}
	g.dist.Store(g.afterCut(old, ra, rb, a, b))
	return true
}

// RestoreLink re-inserts the undirected link {a, b} mid-run, if absent,
// and reports whether anything changed. It is CutLink's inverse and
// shares its idempotence and incremental-snapshot semantics; it is also
// usable to add genuinely new links to a running overlay (topology
// repair). Healing a recorded grid cut keeps the mesh a mesh; any other
// new link ends the grid shape.
func (g *Graph) RestoreLink(a, b NodeID) bool {
	g.CheckPair(a, b)
	if g.HasLink(a, b) {
		return false
	}
	old, ra, rb := g.rowsBefore(a, b)
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	g.links++
	if i := g.cutIndex(a, b); i >= 0 {
		g.cuts = slices.Delete(g.cuts, i, i+1)
		g.comps.Store(nil)
	} else {
		g.linksChanged()
	}
	g.dist.Store(g.afterRestore(old, ra, rb))
	return true
}

// cutIndex returns the position of link {a, b} in the cut list, or -1.
func (g *Graph) cutIndex(a, b NodeID) int {
	if len(g.cuts) == 0 {
		return -1
	}
	return slices.Index(g.cuts, g.gridLinkOf(a, b))
}

// rowsBefore returns the snapshot a link mutation will carry rows from,
// with the distance rows of both endpoints. It MUST run before the
// adjacency mutates: the dirty-set rules compare against pre-mutation
// distances. old is nil when no row is materialised (distances never
// queried, or dropped by an earlier mutation): there is nothing to
// carry, so the mutation spends no BFS and the graph stays unbuilt.
func (g *Graph) rowsBefore(a, b NodeID) (old *distMatrix, ra, rb []int) {
	old = g.dist.Load()
	if old == nil || old.filled.Load() == 0 {
		return nil, nil, nil
	}
	return old, g.row(old, a), g.row(old, b)
}

// afterCut builds the snapshot that holds once link {a, b} is gone, from
// the pre-cut rows ra, rb of its endpoints. It runs after the adjacency
// mutated and spends two BFS — the post-cut rows na, nb of a and b, which
// it publishes — to decide EXACTLY which other rows changed.
//
// Removal only lengthens paths, and a shortest path from s crosses the
// link a→b only if d(s,a)+1 = d(s,b) (b→a: the mirror image); any other
// source keeps its row. For a source with d(s,a)+1 = d(s,b):
//
//   - if d′(s,b) = d(s,b), every old shortest path s⇝a→b⇝t is matched by
//     a surviving one of equal length (the surviving s⇝b path, then the
//     same b⇝t suffix, which never touched the link), so row s is
//     unchanged;
//   - if d′(s,b) ≠ d(s,b), row s differs at t = b.
//
// So row s changes iff nb[s] ≠ rb[s]: on a mesh, the sources of one row
// or column.
func (g *Graph) afterCut(old *distMatrix, ra, rb []int, a, b NodeID) *distMatrix {
	if old == nil {
		return nil
	}
	na, nb := make([]int, g.n), make([]int, g.n)
	g.bfs(a, na)
	g.bfs(b, nb)
	g.rowBuilds.Add(2)
	m := g.carry(old, func(s int) bool {
		switch {
		case ra[s]+1 == rb[s]:
			return nb[s] != rb[s]
		case rb[s]+1 == ra[s]:
			return na[s] != ra[s]
		}
		return false
	})
	if m != nil {
		// Rows a and b always change (their mutual distance was 1).
		m.rows[a].Store(&na)
		m.rows[b].Store(&nb)
		m.filled.Add(2)
	}
	return m
}

// afterRestore builds the snapshot that holds once link {a, b} exists,
// from the pre-restore rows ra, rb of its endpoints. Insertion only
// shortens paths, and a new shortest path uses the new link exactly once
// (shortest paths are simple): d′(s,t) = min(d, d(s,a)+1+d(b,t),
// d(s,b)+1+d(a,t)). Row s changes iff that detour beats something, i.e.
// |d(s,a) − d(s,b)| ≥ 2 or exactly one endpoint was reachable — it then
// differs at the farther endpoint, and otherwise no detour is shorter.
func (g *Graph) afterRestore(old *distMatrix, ra, rb []int) *distMatrix {
	if old == nil {
		return nil
	}
	return g.carry(old, func(s int) bool {
		da, db := ra[s], rb[s]
		if da < 0 || db < 0 {
			return da != db // one side newly reachable
		}
		return da-db >= 2 || db-da >= 2
	})
}

// carry returns a snapshot that shares old's materialised row of every
// source for which changed reports false; the other rows stay nil until
// queried.
// When ≥ 75 % of the sources changed (a bridge: ring and tree links) the
// bookkeeping buys nothing and carry returns nil — the next query pays
// one rebuild (eager full matrix for small graphs, lazy rows for large
// ones), and a burst of consecutive faults coalesces into one rebuild.
func (g *Graph) carry(old *distMatrix, changed func(s int) bool) *distMatrix {
	m := newDistMatrix(g.n)
	dirty, carried := 0, 0
	for s := 0; s < g.n; s++ {
		if changed(s) {
			dirty++
		} else if p := old.rows[s].Load(); p != nil {
			m.rows[s].Store(p)
			carried++
		}
	}
	if dirty*4 >= g.n*3 {
		return nil
	}
	m.filled.Store(int64(carried))
	g.rowsCarried.Add(uint64(carried))
	return m
}

func newDistMatrix(n int) *distMatrix {
	return &distMatrix{rows: make([]atomic.Pointer[[]int], n)}
}

// CheckPair panics unless {a, b} names a possible link of g: two distinct
// nodes in range. CutLink and RestoreLink run it before anything else, so
// a malformed pair is a loud bug even when the mutation would be a no-op.
func (g *Graph) CheckPair(a, b NodeID) {
	if a == b {
		panic(fmt.Sprintf("topology: self-link at node %d", a))
	}
	if a < 0 || b < 0 || int(a) >= g.n || int(b) >= g.n {
		panic(fmt.Sprintf("topology: link {%d,%d} out of range [0,%d)", a, b, g.n))
	}
}

// components is the connected-component labelling of one link set:
// label[i] is the index of i's component, components numbered in order
// of their smallest member. It is the single implementation of
// reachability — Reachable, Connected, ComponentOf and Components all
// read it — and is independent of the distance rows, so a graph asked
// only for reachability (the oracle's shadow overlay) never builds one.
type components struct {
	label []int32
	count int
}

// components returns the labelling of the current link set, computing it
// with one O(N+E) sweep on first use after a mutation. Concurrent first
// callers compute identical labellings, so whichever Store lands is
// correct.
func (g *Graph) components() *components {
	if c := g.comps.Load(); c != nil {
		return c
	}
	c := &components{label: make([]int32, g.n)}
	for i := range c.label {
		c.label[i] = -1
	}
	qp := getQueue(g.n)
	defer bfsQueues.Put(qp)
	for i := range c.label {
		if c.label[i] >= 0 {
			continue
		}
		id := int32(c.count)
		c.count++
		c.label[i] = id
		queue := append((*qp)[:0], NodeID(i))
		for head := 0; head < len(queue); head++ {
			for _, v := range g.adj[queue[head]] {
				if c.label[v] < 0 {
					c.label[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	g.comps.Store(c)
	return c
}

// Reachable reports whether a path joins a and b — Dist(a, b) ≥ 0
// without computing a distance. O(1) on a pristine mesh and after the
// first query following a mutation.
func (g *Graph) Reachable(a, b NodeID) bool {
	if g.isPristineGrid() {
		return true
	}
	c := g.components()
	return c.label[a] == c.label[b]
}

// Connected reports whether every node can reach every other node.
func (g *Graph) Connected() bool {
	return g.isPristineGrid() || g.components().count == 1
}

// ComponentOf returns the sorted IDs of every node reachable from id
// (including id itself) — the connected component id sits in. On a
// partitioned graph this identifies the side of the split.
func (g *Graph) ComponentOf(id NodeID) []NodeID {
	c := g.components()
	var out []NodeID
	for j, l := range c.label {
		if l == c.label[id] {
			out = append(out, NodeID(j))
		}
	}
	return out
}

// Components returns every connected component, each sorted ascending,
// ordered by smallest member. A connected graph yields one component.
func (g *Graph) Components() [][]NodeID {
	c := g.components()
	out := make([][]NodeID, c.count)
	for j, l := range c.label {
		out[l] = append(out[l], NodeID(j))
	}
	return out
}

// Bisect returns every link crossing the cut defined by left: links
// {a, b} with left(a) != left(b), each ordered (smaller, larger) and the
// list sorted — deterministic input for partition injectors, which cut
// exactly these links to split the graph into the two sides.
func (g *Graph) Bisect(left func(NodeID) bool) [][2]NodeID {
	var out [][2]NodeID
	for a := 0; a < g.n; a++ {
		for _, b := range g.adj[a] {
			if NodeID(a) < b && left(NodeID(a)) != left(b) {
				out = append(out, [2]NodeID{NodeID(a), b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// LinkList returns every undirected link as an ordered (smaller, larger)
// pair, sorted — a deterministic enumeration for seeded link-churn.
func (g *Graph) LinkList() [][2]NodeID {
	out := make([][2]NodeID, 0, g.links)
	for a := 0; a < g.n; a++ {
		for _, b := range g.adj[a] {
			if NodeID(a) < b {
				out = append(out, [2]NodeID{NodeID(a), b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func remove(s []NodeID, v NodeID) []NodeID {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// bfsQueues recycles BFS work queues (*[]NodeID): a queue is as large as
// the row it fills, so one per BFS would double the bytes a row build
// allocates (churn-2500: 169 MB/op against 102 MB/op pooled).
var bfsQueues sync.Pool

// getQueue returns an empty work queue of capacity ≥ n — every node
// enters a sweep once, so append never regrows it. Callers hand it back
// with bfsQueues.Put.
func getQueue(n int) *[]NodeID {
	qp, _ := bfsQueues.Get().(*[]NodeID)
	if qp == nil || cap(*qp) < n {
		q := make([]NodeID, 0, n)
		qp = &q
	}
	return qp
}

// bfs fills one row of the distance matrix. Unreachable nodes get -1.
func (g *Graph) bfs(src NodeID, row []int) {
	for i := range row {
		row[i] = -1
	}
	row[src] = 0
	qp := getQueue(g.n)
	queue := append((*qp)[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if row[v] == -1 {
				row[v] = row[u] + 1
				queue = append(queue, v)
			}
		}
	}
	bfsQueues.Put(qp)
}

// ensureDist returns the current distance snapshot, creating it on first
// use. Small graphs (≤ eagerDistLimit nodes) materialize the full matrix
// immediately; larger ones start empty and fill rows on demand.
// Concurrent first callers may each build a snapshot; the CAS keeps
// exactly one, and per-row CAS publication keeps row fills on the kept
// snapshot consistent, so racing readers always see complete, immutable
// rows.
func (g *Graph) ensureDist() *distMatrix {
	if m := g.dist.Load(); m != nil {
		return m
	}
	var m *distMatrix
	if g.n <= eagerDistLimit {
		m = g.computeDist()
	} else {
		m = newDistMatrix(g.n)
	}
	if !g.dist.CompareAndSwap(nil, m) {
		if prev := g.dist.Load(); prev != nil {
			return prev
		}
	}
	return m
}

// computeDist builds a fully materialized all-pairs snapshot of the
// current adjacency over one backing array (the eager small-graph path
// and the dirty-set fallback of link mutations).
func (g *Graph) computeDist() *distMatrix {
	m := newDistMatrix(g.n)
	backing := make([]int, g.n*g.n)
	for i := 0; i < g.n; i++ {
		row := backing[i*g.n : (i+1)*g.n : (i+1)*g.n]
		g.bfs(NodeID(i), row)
		m.rows[i].Store(&row)
	}
	m.filled.Store(int64(g.n))
	g.fullBuilds.Add(1)
	return m
}

// Dist returns the hop distance between a and b, or -1 if unreachable.
// On a mesh this is the Manhattan formula — exact, O(1), and no
// distance-row materialization (see the gridCols field) — unless some cut
// link has both ends inside the bounding box of a and b. The formula is
// exact for every other pair: the mesh minus its cuts has no shorter path
// than the grid, and with every link inside the box present an L-shaped
// path of that length survives. Only blocked pairs read a distance row.
func (g *Graph) Dist(a, b NodeID) int {
	if g.gridCols > 0 {
		ra, ca := int(a)/g.gridCols, int(a)%g.gridCols
		rb, cb := int(b)/g.gridCols, int(b)%g.gridCols
		r0, r1 := min(ra, rb), max(ra, rb)
		c0, c1 := min(ca, cb), max(ca, cb)
		if !g.cutInBox(r0, c0, r1, c1) {
			return r1 - r0 + c1 - c0
		}
	}
	return g.row(g.ensureDist(), a)[b]
}

// cutInBox reports whether some cut link has both ends inside rows
// [r0, r1] × cols [c0, c1]. A link's lower-ID end is its top-left one, so
// that end bounds the box from below and the other from above.
func (g *Graph) cutInBox(r0, c0, r1, c1 int) bool {
	for _, l := range g.cuts {
		if l.r0 >= r0 && l.c0 >= c0 && l.r1 <= r1 && l.c1 <= c1 {
			return true
		}
	}
	return false
}

// eachRow invokes fn with every source's distance row, in source order.
// Materialized rows are reused; missing rows of a large (lazy) snapshot
// are computed into a shared scratch buffer WITHOUT being retained, so
// whole-graph aggregates (Diameter, MeanPathLength) never force a
// 2500-node graph to hold its full O(N²) matrix. fn must not retain row.
func (g *Graph) eachRow(fn func(i int, row []int) bool) {
	m := g.ensureDist()
	var scratch []int
	for i := 0; i < g.n; i++ {
		var row []int
		if p := m.rows[i].Load(); p != nil {
			row = *p
		} else if g.n <= eagerDistLimit {
			row = g.row(m, NodeID(i))
		} else {
			if scratch == nil {
				scratch = make([]int, g.n)
			}
			g.bfs(NodeID(i), scratch)
			row = scratch
		}
		if !fn(i, row) {
			return
		}
	}
}

// Diameter returns the longest shortest path, or -1 if disconnected. A
// pristine mesh answers corner to corner, without the all-sources sweep.
func (g *Graph) Diameter() int {
	if g.isPristineGrid() {
		return g.n/g.gridCols + g.gridCols - 2
	}
	max := 0
	disconnected := false
	g.eachRow(func(_ int, row []int) bool {
		for _, d := range row {
			if d < 0 {
				disconnected = true
				return false
			}
			if d > max {
				max = d
			}
		}
		return true
	})
	if disconnected {
		return -1
	}
	return max
}

// mplExactLimit bounds the exact all-sources mean-path computation:
// graphs up to this many nodes average over every source (the historical
// behaviour, preserved for every committed study size up to the 50×50
// mesh). Larger graphs average over mplSampleSources evenly strided
// sources instead — one BFS each — because the exact form is Θ(N·E)
// (≈3·10¹⁰ operations on a 100k-node mesh) and its only consumer,
// protocol.NewCostModel, ceils the result to a whole hop count anyway.
const (
	mplExactLimit    = 4096
	mplSampleSources = 64
)

// MeanPathLength returns the average hop distance over all ordered pairs
// of distinct reachable nodes. On the paper's 5×5 mesh this is ≈3.33; the
// paper rounds the PLEDGE cost to 4, which callers may do themselves (see
// protocol.CostModel). Above mplExactLimit nodes the average is estimated
// from a deterministic sample of sources (same inputs, same estimate).
func (g *Graph) MeanPathLength() float64 {
	sum, cnt := 0, 0
	switch {
	case g.n > mplExactLimit:
		stride := g.n / mplSampleSources
		row := make([]int, g.n)
		for i := 0; i < g.n; i += stride {
			g.bfs(NodeID(i), row)
			for j, d := range row {
				if i != j && d > 0 {
					sum += d
					cnt++
				}
			}
		}
	case g.isPristineGrid():
		// Pristine mesh: the Manhattan distance separates into a row and
		// a column term. Ordered pairs of a k-line sum |i−j| to
		// k(k²−1)/3, and each row pair occurs cols² times (each column
		// pair rows² times) — the same integers the sweep below adds up,
		// hence the bit-identical quotient.
		rows, cols := g.n/g.gridCols, g.gridCols
		sum = cols*cols*rows*(rows*rows-1)/3 + rows*rows*cols*(cols*cols-1)/3
		cnt = g.n * (g.n - 1)
	default:
		g.eachRow(func(i int, row []int) bool {
			for j, d := range row {
				if i != j && d > 0 {
					sum += d
					cnt++
				}
			}
			return true
		})
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// Degrees returns the sorted degree sequence, useful in tests.
func (g *Graph) Degrees() []int {
	out := make([]int, g.n)
	for i, a := range g.adj {
		out[i] = len(a)
	}
	sort.Ints(out)
	return out
}

// Mesh builds the paper's rows×cols grid (Figure 4 is Mesh(5, 5): 25
// nodes, 40 links). Node (r, c) has ID r*cols + c.
func Mesh(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("topology: mesh dimensions must be positive")
	}
	g := NewGraph(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddLink(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddLink(id(r, c), id(r+1, c))
			}
		}
	}
	g.gridCols = cols // set last: AddLink clears it
	return g
}

// Torus builds a rows×cols grid with wraparound links.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("topology: torus dimensions must be at least 3")
	}
	g := NewGraph(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddLink(id(r, c), id(r, (c+1)%cols))
			g.AddLink(id(r, c), id((r+1)%rows, c))
		}
	}
	return g
}

// Ring builds an n-cycle.
func Ring(n int) *Graph {
	if n < 3 {
		panic("topology: ring needs at least 3 nodes")
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddLink(NodeID(i), NodeID((i+1)%n))
	}
	return g
}

// Star builds a hub-and-spoke graph: node 0 links to every other node.
func Star(n int) *Graph {
	if n < 2 {
		panic("topology: star needs at least 2 nodes")
	}
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddLink(0, NodeID(i))
	}
	return g
}

// Complete builds the complete graph on n nodes.
func Complete(n int) *Graph {
	if n < 2 {
		panic("topology: complete graph needs at least 2 nodes")
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddLink(NodeID(i), NodeID(j))
		}
	}
	return g
}

// Random builds a connected Erdős–Rényi-style graph: a random spanning
// tree (guaranteeing connectivity) plus each remaining pair with
// probability p. Deterministic for a fixed stream.
func Random(n int, p float64, s *rng.Stream) *Graph {
	if n < 2 {
		panic("topology: random graph needs at least 2 nodes")
	}
	g := NewGraph(n)
	perm := s.Perm(n)
	for i := 1; i < n; i++ {
		// Attach perm[i] to a uniformly chosen earlier node: random tree.
		g.AddLink(NodeID(perm[i]), NodeID(perm[s.Intn(i)]))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasLink(NodeID(i), NodeID(j)) && s.Bernoulli(p) {
				g.AddLink(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

// Clone returns a deep copy, so attack injection can mutate a run's
// topology without touching the pristine one shared across replications.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.n)
	for i, nbrs := range g.adj {
		for _, v := range nbrs {
			if NodeID(i) < v {
				c.AddLink(NodeID(i), v)
			}
		}
	}
	c.gridCols = g.gridCols // AddLink cleared it; the copy is link-identical
	c.cuts = slices.Clone(g.cuts)
	return c
}
