package check

import "realtor/internal/topology"

// pairTable holds one record per directed relationship between two
// nodes: t[a] is a's row, holding a record per peer b. It is indexed by
// node first because every audit reads one node's soft state, so all
// its lookups land in that node's own small row, and because a node
// index holds any node ID a World can have (a packed two-ID key would
// alias past 2³²). Rows are made on first write; a missing row reads as
// empty.
//
// A row is an open-addressed hash table of its own — linear probing
// over a power-of-two slot array, the home slot picked by a Fibonacci
// multiply of the peer ID — rather than a Go map: a lookup is one
// multiply and a probe or two with no hashing call, and an insert costs
// amortized O(1) however long the row is (an unbounded flood at 99 856
// nodes can leave a row holding most of the mesh). Rows never delete a
// single record, so probing needs no tombstones; clear empties a whole
// row.
type pairTable[V any] []pairRow[V]

// pairRow is one node's records, keyed by peer.
type pairRow[V any] struct {
	slots []pairSlot[V] // nil, or a power-of-two array at most 3/4 full
	n     int32         // records held
	shift uint8         // 64 − log2(len(slots)): the home-slot shift
}

// pairSlot is one record; key is the peer ID plus one, so the zero slot
// is empty.
type pairSlot[V any] struct {
	key topology.NodeID
	val V
}

// pairRowMin is a row's slot count on first write.
const pairRowMin = 8

// find returns the slot holding key, or the empty slot where it
// belongs. The row must have slots.
func (r *pairRow[V]) find(key topology.NodeID) (int, bool) {
	mask := len(r.slots) - 1
	for i := int(uint64(key) * 0x9e3779b97f4a7c15 >> r.shift); ; i = (i + 1) & mask {
		switch r.slots[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// get returns the record a holds for b.
func (t pairTable[V]) get(a, b topology.NodeID) (v V, ok bool) {
	r := &t[a]
	if r.n == 0 {
		return v, false
	}
	if i, ok := r.find(b + 1); ok {
		return r.slots[i].val, true
	}
	return v, false
}

// slot returns a's record for b to write through, inserting a zero
// record first when there is none; old reports whether one existed.
func (t pairTable[V]) slot(a, b topology.NodeID) (v *V, old bool) {
	r := &t[a]
	key := b + 1
	if r.n > 0 {
		if i, ok := r.find(key); ok {
			return &r.slots[i].val, true
		}
	}
	if int(r.n+1)*4 > len(r.slots)*3 {
		r.grow()
	}
	i, _ := r.find(key)
	r.slots[i].key = key
	r.n++
	return &r.slots[i].val, false
}

// put sets a's record for b.
func (t pairTable[V]) put(a, b topology.NodeID, v V) {
	p, _ := t.slot(a, b)
	*p = v
}

// clear forgets every record of a's row, keeping its slots for reuse.
func (t pairTable[V]) clear(a topology.NodeID) {
	r := &t[a]
	clear(r.slots)
	r.n = 0
}

// grow doubles the row's slot array (or makes its first one) and
// re-places every record.
func (r *pairRow[V]) grow() {
	size := 2 * len(r.slots)
	if size == 0 {
		size = pairRowMin
	}
	old := r.slots
	r.slots = make([]pairSlot[V], size)
	r.shift = 64
	for s := size; s > 1; s >>= 1 {
		r.shift--
	}
	for _, s := range old {
		if s.key != 0 {
			i, _ := r.find(s.key)
			r.slots[i] = s
		}
	}
}
