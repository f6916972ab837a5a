package mesh

import "math/bits"

// nodeTable maps a node representation, (tree, packed position), to an
// index into Extract's node list: an open-addressed table with linear
// probing that lives for one extraction, on the path that resolves eight
// corners per element. Entries are never deleted.
type nodeTable struct {
	slots []nodeSlot // at most half full
	n     int
}

type nodeSlot struct {
	k    uint64
	tree int32
	idx  int32 // node index + 1; 0 marks an empty slot
}

// newNodeTable returns a table with room for hint entries: twice as
// many slots, since a slot's home is the hash scaled to the table length,
// which need not be a power of two.
func newNodeTable(hint int) *nodeTable {
	return &nodeTable{slots: make([]nodeSlot, max(16, 2*hint))}
}

// hashNode mixes every bit of the key into every bit of the hash, the
// high ones home scales by the table length included. Packed positions
// are multiples of large powers of two in each of their three fields:
// one xor-shift-multiply round leaves long probe chains, the second
// removes them.
func hashNode(tree int32, k uint64) uint64 {
	h := k + uint64(tree)*0x9e3779b97f4a7c15
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}

// home returns the slot the probe for (tree, k) starts at.
func (t *nodeTable) home(tree int32, k uint64) int {
	hi, _ := bits.Mul64(hashNode(tree, k), uint64(len(t.slots)))
	return int(hi)
}

// find returns the slot holding (tree, k), or the empty slot where it
// would go.
func (t *nodeTable) find(tree int32, k uint64) (int, bool) {
	for i := t.home(tree, k); ; {
		s := &t.slots[i]
		if s.idx == 0 {
			return i, false
		}
		if s.k == k && s.tree == tree {
			return i, true
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// get returns the index stored under (tree, k).
func (t *nodeTable) get(tree int32, k uint64) (int32, bool) {
	i, ok := t.find(tree, k)
	return t.slots[i].idx - 1, ok
}

// putAt stores idx under (tree, k) in slot i, the empty slot find
// returned for it with no insertion since, unless the table must grow.
func (t *nodeTable) putAt(i int, tree int32, k uint64, idx int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.put(tree, k, idx)
		return
	}
	t.slots[i] = nodeSlot{k: k, tree: tree, idx: idx + 1}
	t.n++
}

// put stores idx under (tree, k), which must not be present.
func (t *nodeTable) put(tree int32, k uint64, idx int32) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]nodeSlot, 2*len(old))
		for _, s := range old {
			if s.idx != 0 {
				t.insert(s)
			}
		}
	}
	t.insert(nodeSlot{k: k, tree: tree, idx: idx + 1})
	t.n++
}

func (t *nodeTable) insert(s nodeSlot) {
	i := t.home(s.tree, s.k)
	for t.slots[i].idx != 0 {
		if i++; i == len(t.slots) {
			i = 0
		}
	}
	t.slots[i] = s
}
