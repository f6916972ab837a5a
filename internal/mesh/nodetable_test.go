package mesh

import (
	"testing"

	"rhea/internal/morton"
)

// The table must keep every entry through growth, tell apart keys that
// differ only in the tree id or only in the highest position bits (the
// hash has to reach them), and serve a node under both of its aliases.
func TestNodeTable(t *testing.T) {
	tab := newNodeTable(0)
	start := len(tab.slots)
	type key struct {
		tree int32
		k    uint64
	}
	var keys []key
	add := func(tree int32, pos [3]uint32) {
		keys = append(keys, key{tree, posKey(pos)})
	}
	// Level-2 lattice positions in three trees: the same positions under
	// different tree ids, and positions that differ only in z's top bits.
	const h = morton.RootLen / 4
	for tree := int32(0); tree < 3; tree++ {
		for z := uint32(0); z <= 4; z++ {
			for y := uint32(0); y <= 4; y++ {
				for x := uint32(0); x <= 4; x++ {
					add(tree, [3]uint32{x * h, y * h, z * h})
				}
			}
		}
	}
	for i, k := range keys {
		if _, ok := tab.get(k.tree, k.k); ok {
			t.Fatalf("key %d present before insertion", i)
		}
		tab.put(k.tree, k.k, int32(i/2)) // neighbours in the list alias one index
	}
	if len(tab.slots) == start {
		t.Fatalf("table never grew: %d slots for %d keys", len(tab.slots), len(keys))
	}
	if 2*tab.n > len(tab.slots) || tab.n != len(keys) {
		t.Fatalf("%d entries in %d slots after %d insertions", tab.n, len(tab.slots), len(keys))
	}
	for i, k := range keys {
		if got, ok := tab.get(k.tree, k.k); !ok || got != int32(i/2) {
			t.Fatalf("key %d (tree %d, %#x): got %d,%v, want %d", i, k.tree, k.k, got, ok, i/2)
		}
	}
	if _, ok := tab.get(3, keys[0].k); ok {
		t.Error("found a key under a tree id never inserted")
	}
	if _, ok := tab.get(0, posKey([3]uint32{1, 0, 0})); ok {
		t.Error("found a position never inserted")
	}
}

// Lattice positions are multiples of large powers of two in each packed
// field; the hash must still spread them, or probe chains grow with the
// mesh. The bound is loose: a well-mixed table at load 1/4 to 1/2
// averages under two probes.
func TestNodeTableProbeLength(t *testing.T) {
	const n = 1 << 5 // level-5 lattice: 33^3 positions, multiples of 2^14
	const h = morton.RootLen / n
	tab := newNodeTable(0)
	idx := int32(0)
	for z := uint32(0); z <= n; z++ {
		for y := uint32(0); y <= n; y++ {
			for x := uint32(0); x <= n; x++ {
				tab.put(0, posKey([3]uint32{x * h, y * h, z * h}), idx)
				idx++
			}
		}
	}
	var probes int
	for i, s := range tab.slots {
		if s.idx != 0 {
			probes += (i-tab.home(s.tree, s.k)+len(tab.slots))%len(tab.slots) + 1
		}
	}
	if avg := float64(probes) / float64(tab.n); avg > 2 {
		t.Errorf("average probe length %.2f over %d lattice nodes, want <= 2", avg, tab.n)
	}
}
