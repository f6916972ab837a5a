package mesh

// Unit tests for the distributed Q2 node layer: global node counts,
// cross-rank gid/position consistency, vertex map totality, and the
// collective fail-fast on nonconforming meshes.

import (
	"testing"

	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// TestExtractQ2Counts checks the closed-form node counts of uniform
// meshes on several rank counts: a level-L unit tree has (2^(L+1)+1)^3
// Q2 nodes and (2^L+1)^3 of them are vertices.
func TestExtractQ2Counts(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		for _, lvl := range []uint8{1, 2, 3} {
			sim.Run(ranks, func(r *sim.Rank) {
				tr := forest.New(r, unitBox, lvl)
				m := Extract(tr, nil)
				q2 := ExtractQ2(tr, m)
				side := int64(2<<lvl) + 1
				if want := side * side * side; q2.NGlobal != want {
					t.Errorf("ranks=%d level %d: NGlobal = %d, want %d", ranks, lvl, q2.NGlobal, want)
				}
				verts := 0
				for _, vl := range q2.VertLocal {
					if vl >= 0 {
						verts++
					}
				}
				totalVerts := m.Rank.AllreduceInt64(int64(verts))
				vside := int64(1<<lvl) + 1
				if want := vside * vside * vside; totalVerts != want {
					t.Errorf("ranks=%d level %d: %d vertices, want %d", ranks, lvl, totalVerts, want)
				}
				// Every owned Q1 node must be reachable through Q1ToQ2 and
				// round-trip through VertLocal.
				for li, qi := range q2.Q1ToQ2 {
					if qi < 0 {
						t.Fatalf("Q1 node %d has no Q2 counterpart", li)
					}
					if q2.VertLocal[qi] != int32(li) {
						t.Fatalf("vertex map roundtrip failed: Q1 %d -> Q2 %d -> Q1 %d", li, qi, q2.VertLocal[qi])
					}
				}
			})
		}
	}
}

// TestExtractQ2GidConsistency checks that the element->slot tables agree
// across ranks: every slot an element names holds the node at that
// element's half-unit position — on the owner, read through the ghost
// plan — owned slots are gid-offset and ghost slots ascend through other
// ranks' ids, so gids are dense in [0, NGlobal).
func TestExtractQ2GidConsistency(t *testing.T) {
	sim.Run(4, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := Extract(tr, nil)
		q2 := ExtractQ2(tr, m)
		n, ns := q2.NumOwned, q2.NSlots()
		pos := make([][]float64, 3)
		owned, ghost := make([][]float64, 3), make([][]float64, 3)
		for a := range pos {
			pos[a] = make([]float64, ns)
			for i, p2 := range q2.OwnedPos2 {
				pos[a][i] = float64(p2[a])
			}
			owned[a], ghost[a] = pos[a][:n], pos[a][n:]
		}
		q2.GX.GatherMulti(owned, ghost)
		for ei, e := range m.Leaves {
			for nn := 0; nn < 27; nn++ {
				s := q2.Nodes[ei][nn]
				if s < 0 || int(s) >= ns {
					t.Fatalf("slot %d out of range [0,%d)", s, ns)
				}
				want := Q2NodePos2(e, nn)
				if p := [3]uint32{uint32(pos[0][s]), uint32(pos[1][s]), uint32(pos[2][s])}; p != want {
					t.Fatalf("element %d node %d: slot %d holds position %v, want %v", ei, nn, s, p, want)
				}
			}
		}
		ghosts := q2.GX.Ghosts()
		for k, g := range ghosts {
			if q2.Layout().Owns(g) || g < 0 || g >= q2.NGlobal || (k > 0 && g <= ghosts[k-1]) {
				t.Fatalf("ghost slot %d has gid %d: owned here, out of range or not ascending", n+k, g)
			}
		}
		// Owned nodes: position key order implies gid order, and the owner
		// rule must pick this rank.
		for i := 1; i < q2.NumOwned; i++ {
			if posKey(q2.OwnedPos2[i-1]) >= posKey(q2.OwnedPos2[i]) {
				t.Fatalf("owned Q2 positions not strictly sorted at %d", i)
			}
		}
		for _, p2 := range q2.OwnedPos2 {
			if o := q2OwnerRank(tr, p2); o != r.ID() {
				t.Fatalf("owned node %v has owner rank %d, want %d", p2, o, r.ID())
			}
		}
		// The global origin vertex is gid 0 (the pressure pin relies on it).
		if r.ID() == 0 {
			if q2.Offset != 0 || q2.OwnedPos2[0] != ([3]uint32{0, 0, 0}) {
				t.Errorf("rank 0 does not own the origin as gid 0: offset %d pos %v", q2.Offset, q2.OwnedPos2[0])
			}
		}
	})
}

// TestExtractQ2IsVertex pins the vertex classification away from the
// finest level: on a coarse uniform mesh, edge midpoints have even
// half-unit coordinates, so parity alone must not classify them.
func TestExtractQ2IsVertex(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 1)
		m := Extract(tr, nil)
		q2 := ExtractQ2(tr, m)
		h := m.Leaves[0].Len() // node spacing in half-units
		if !q2.IsVertex([3]uint32{0, 0, 0}) || !q2.IsVertex([3]uint32{2 * h, 2 * h, 0}) {
			t.Error("corner positions not classified as vertices")
		}
		if q2.IsVertex([3]uint32{h, 0, 0}) || q2.IsVertex([3]uint32{h, 2 * h, h}) {
			t.Error("edge/face midpoints classified as vertices despite even coordinates")
		}
		vside := int64(1<<1) + 1
		verts := 0
		for _, vl := range q2.VertLocal {
			if vl >= 0 {
				verts++
			}
		}
		if int64(verts) != vside*vside*vside {
			t.Errorf("level-1 single rank owns %d vertices, want %d", verts, vside*vside*vside)
		}
	})
}

// TestExtractQ2RejectsHanging checks the collective fail-fast: every
// rank of an adapted (hanging-node) mesh must panic, not deadlock.
func TestExtractQ2RejectsHanging(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		defer func() {
			if recover() == nil {
				t.Errorf("rank %d: ExtractQ2 did not panic on a nonconforming mesh", r.ID())
			}
		}()
		tr := forest.New(r, unitBox, 2)
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
		tr.Balance()
		tr.Partition()
		m := Extract(tr, nil)
		ExtractQ2(tr, m)
	})
}

// TestOwnershipDecidedByOwnedCell pins the one ownership rule every
// consumer reads: on an adapted one-tree forest each owned Q1 node is
// owned by the owner of its OwnedCell — the most-negative incident
// finest cell, whose containing element is local — and on a uniform one
// every Q2 vertex is owned by the rank that owns its Q1 node.
func TestOwnershipDecidedByOwnedCell(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		sim.Run(p, func(r *sim.Rank) {
			refine := func(o morton.Octant) bool { return o.X == 0 && o.Z == 0 }
			for _, passes := range []int{0, 2} {
				f := buildTree(r, 2, refine, passes)
				m := Extract(f, nil)
				for i, pos := range m.OwnedPos {
					cell := m.OwnedCell[i]
					for a := 0; a < 3; a++ {
						want := pos[a]
						if want > 0 {
							want--
						}
						if got := [3]uint32{cell.O.X, cell.O.Y, cell.O.Z}[a]; got != want {
							t.Fatalf("p=%d node %v: owner cell %v is not the most-negative incident cell", p, pos, cell)
						}
					}
					if ow := f.Owners(cell, nil); len(ow) != 1 || ow[0] != r.ID() {
						t.Fatalf("p=%d node %v: owner cell %v belongs to %v, node to %d", p, pos, cell, ow, r.ID())
					}
					if m.FindLocalElement(cell.Tree, cell.O) < 0 {
						t.Fatalf("p=%d node %v: owner cell %v has no local element", p, pos, cell)
					}
					if m.OwnedCellPos[i] != pos {
						t.Fatalf("p=%d node %v: OwnedCellPos %v differs on a one-tree forest", p, pos, m.OwnedCellPos[i])
					}
				}
				if passes > 0 {
					continue
				}
				q2 := ExtractQ2(f, m)
				verts := 0
				for i, p2 := range q2.OwnedPos2 {
					if !q2.IsVertex(p2) {
						continue
					}
					verts++
					li, ok := m.LocalIndex(0, [3]uint32{p2[0] >> 1, p2[1] >> 1, p2[2] >> 1})
					if !ok || q2.VertLocal[i] != li {
						t.Fatalf("p=%d: Q2 vertex %v owned here, its Q1 node is not (ok=%v)", p, p2, ok)
					}
				}
				if verts != m.NumOwned {
					t.Fatalf("p=%d: %d owned Q2 vertices for %d owned Q1 nodes", p, verts, m.NumOwned)
				}
			}
		})
	}
}
