package forest

// Tests for the inter-tree neighbor and node-representation machinery
// that conforming mesh extraction builds on: the paper's 24-tree cubed
// sphere invariants (tree count, involutive face transforms, exterior
// faces only on the shell boundaries), symmetry of the generalized
// 26-direction neighbor relation across tree edges and corners, and
// consistency of the node-representation closure (same canonical
// representative from every representation, same physical coordinates).

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rhea/internal/morton"
	"rhea/internal/sim"
)

// TestCubedSphere24Trees pins the paper's flagship decomposition: 24
// trees, every exterior face on the inner or outer shell boundary (the
// radial faces -z/+z of each tree), every lateral face connected, and
// the face transforms involutive.
func TestCubedSphere24Trees(t *testing.T) {
	c := CubedSphere(2)
	if c.NumTrees() != 24 {
		t.Fatalf("CubedSphere(2): %d trees, want 24", c.NumTrees())
	}
	boundary := 0
	for tr := int32(0); tr < int32(c.NumTrees()); tr++ {
		for f := 0; f < 6; f++ {
			fc := c.conns[tr][f]
			if !fc.ok {
				if f != 4 && f != 5 {
					t.Fatalf("tree %d: exterior face %d is not a radial shell boundary", tr, f)
				}
				boundary++
				continue
			}
			// Involution: the neighbor's connecting face points back.
			back := c.conns[fc.tree][fc.face]
			if !back.ok || back.tree != tr || int(back.face) != f {
				t.Fatalf("tree %d face %d: transform not involutive (back: %v -> tree %d face %d)",
					tr, f, back.ok, back.tree, back.face)
			}
		}
	}
	if boundary != 48 { // 24 trees x 2 radial faces
		t.Fatalf("%d boundary faces, want 48", boundary)
	}
}

// TestNeighborSymmetry checks the generalized 26-direction neighbor
// relation (including two- and three-hop paths across tree edges and
// corners) is symmetric as a relation: if n neighbors o, then o appears
// among n's neighbors.
func TestNeighborSymmetry(t *testing.T) {
	conns := map[string]*Connectivity{
		"brick":   BrickConnectivity(2, 2, 2),
		"sphere2": CubedSphere(2),
	}
	for name, c := range conns {
		name, c := name, c
		sim.Run(1, func(r *sim.Rank) {
			f := New(r, c, 1)
			for _, o := range f.Leaves() {
				for _, d := range Dirs26 {
					n, ok := f.Neighbor(o, d)
					if !ok {
						continue
					}
					if !n.O.Valid() {
						t.Fatalf("%s: invalid neighbor %v of %v (dir %v)", name, n, o, d)
					}
					found := false
					for _, d2 := range Dirs26 {
						if b, ok2 := f.Neighbor(n, d2); ok2 && b == o {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%s: neighbor relation not symmetric: %v -> %v (dir %v)", name, o, n, d)
					}
				}
			}
		})
	}
}

// TestNodeRepsConsistency checks the representation closure of shared
// nodes: starting the closure from any representation yields the same
// canonical representative, and every representation maps to the same
// physical point under the trilinear tree geometry.
func TestNodeRepsConsistency(t *testing.T) {
	conns := map[string]*Connectivity{
		"brick":   BrickConnectivity(2, 2, 1),
		"sphere2": CubedSphere(2),
	}
	h := uint32(morton.RootLen / 2)
	samples := [][3]uint32{
		{0, 0, 0}, {morton.RootLen, 0, 0}, {morton.RootLen, morton.RootLen, 0},
		{morton.RootLen, h, h}, {h, morton.RootLen, morton.RootLen},
		{morton.RootLen, morton.RootLen, morton.RootLen}, {h, h, h},
	}
	for name, c := range conns {
		for tr := int32(0); tr < int32(c.NumTrees()); tr++ {
			for _, pos := range samples {
				reps := c.NodeReps(tr, pos, nil)
				x0 := c.TreeCoord(reps[0].Tree, reps[0].Pos)
				for _, rp := range reps {
					// Same canonical representative from any starting rep.
					again := c.NodeReps(rp.Tree, rp.Pos, nil)
					if len(again) != len(reps) || again[0] != reps[0] {
						t.Fatalf("%s tree %d pos %v: closure from rep %v disagrees (%v vs %v)",
							name, tr, pos, rp, again[0], reps[0])
					}
					// Geometrically the same point (shared tree faces share
					// their vertices, so the trilinear maps agree).
					x := c.TreeCoord(rp.Tree, rp.Pos)
					for i := 0; i < 3; i++ {
						if math.Abs(x[i]-x0[i]) > 1e-12 {
							t.Fatalf("%s tree %d pos %v: rep %v maps to %v, want %v", name, tr, pos, rp, x, x0)
						}
					}
				}
			}
		}
	}
}

// TestGhostRanksMatchNeighborOwners holds the arithmetic ghost test to
// its definition: for every leaf, and every leaf's parent, GhostRanks
// lists exactly the ranks other than this one that Owners gives for the
// neighbours Neighbor finds and Contains rejects, in first-met order.
// Randomly refined bricks of 2x1x1, 2x2x1 and 3x1x1 trees and the cubed
// sphere put leaves at tree faces, edges and corners; the one-tree unit
// box and the bricks put them on physical boundaries, where the sealed
// leaves return at once; 1 to 4 ranks cut them anywhere.
func TestGhostRanksMatchNeighborOwners(t *testing.T) {
	conns := map[string]*Connectivity{
		"box":      BrickConnectivity(1, 1, 1),
		"brick311": BrickConnectivity(3, 1, 1),
		"brick211": BrickConnectivity(2, 1, 1),
		"brick221": BrickConnectivity(2, 2, 1),
		"sphere2":  CubedSphere(2),
	}
	want := func(f *Forest, o Octant) []int {
		var out, owners []int
		for _, d := range Dirs26 {
			n, ok := f.Neighbor(o, d)
			if !ok || f.Contains(n) {
				continue
			}
			for _, rk := range f.Owners(n, owners[:0]) {
				if rk != f.Rank().ID() && !slices.Contains(out, rk) {
					out = append(out, rk)
				}
			}
		}
		return out
	}
	for name, c := range conns {
		for p := 1; p <= 4; p++ {
			checked := make([]int, p)
			sim.Run(p, func(r *sim.Rank) {
				rng := rand.New(rand.NewSource(int64(p))) // same stream on all ranks
				f := New(r, c, 1)
				for pass := 0; pass < 3; pass++ {
					marks := rng.Uint64()
					f.Refine(func(o Octant) bool { return (o.O.Key()^uint64(o.Tree)*0x9e3779b9^marks)%3 == 0 })
				}
				f.Balance()
				f.Partition()
				var got []int
				for _, o := range f.Leaves() {
					for _, q := range []Octant{o, {Tree: o.Tree, O: o.O.Parent()}} {
						got = f.GhostRanks(q, got[:0])
						if w := want(f, q); !slices.Equal(got, w) {
							t.Errorf("%s p=%d rank %d: GhostRanks(%v) = %v, Neighbor+Contains+Owners give %v", name, p, r.ID(), q, got, w)
						}
						if len(got) > 0 {
							checked[r.ID()]++
						}
					}
				}
			})
			if p > 1 && slices.Contains(checked, 0) {
				t.Errorf("%s p=%d: a rank saw no leaf with a remote neighbour (%v)", name, p, checked)
			}
		}
	}
}
