package mesh

// nodeTable maps a node representation, (tree, packed position), to an
// index into Extract's node list: an open-addressed table with linear
// probing that lives for one extraction, on the path that resolves eight
// corners per element. Entries are never deleted.
type nodeTable struct {
	slots []nodeSlot // length a power of two, at most half full
	n     int
}

type nodeSlot struct {
	k    uint64
	tree int32
	idx  int32 // node index + 1; 0 marks an empty slot
}

func newNodeTable(hint int) *nodeTable {
	n := 16
	for n < 2*hint {
		n <<= 1
	}
	return &nodeTable{slots: make([]nodeSlot, n)}
}

// hashNode mixes every bit of the key into the low bits the table
// indexes with. Packed positions are multiples of large powers of two in
// each of their three fields: one xor-shift-multiply round leaves long
// probe chains, the second removes them.
func hashNode(tree int32, k uint64) uint64 {
	h := k + uint64(tree)*0x9e3779b97f4a7c15
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}

// get returns the index stored under (tree, k).
func (t *nodeTable) get(tree int32, k uint64) (int32, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := hashNode(tree, k) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.idx == 0 {
			return 0, false
		}
		if s.k == k && s.tree == tree {
			return s.idx - 1, true
		}
	}
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
	mask := uint64(len(t.slots) - 1)
	i := hashNode(s.tree, s.k) & mask
	for t.slots[i].idx != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}
