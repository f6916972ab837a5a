package mesh

import (
	"fmt"
	"sort"

	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Q2 node layer: the 27-node triquadratic element adds edge, face and
// center nodes to the trilinear corner set. Positions are kept in
// half-unit integer coordinates — twice the finest-level units of the
// octree — so every Q2 node of every element has exact integer
// coordinates (a finest-level element has odd-coordinate midpoints).
// Doubled coordinates reach 2*RootLen = 2^20, which still fits the
// 21-bit fields of posKey, so the deterministic position-key numbering
// and the sparse id-resolution machinery of Extract carry over
// verbatim.
//
// Ownership is the one-tree case of Extract's rule: a Q2 node is owned
// by the owner of the most-negative (minimal along the curve) finest
// cell incident to it. At element corners this is exactly the Q1 rule,
// so a vertex node is owned by the same rank in both numberings and the
// vertex<->Q1 index maps below are purely local.
//
// Scope: conforming (no hanging corners) one-tree axis-aligned meshes.
// Q2 hanging-node constraints and multi-tree/mapped geometry are
// intentionally out of scope; ExtractQ2 fails fast — collectively, so
// every rank panics rather than one rank deadlocking the others — on
// anything else.

// Q2Mesh is one rank's portion of the second-order node numbering,
// layered over the Q1 Mesh that produced it.
type Q2Mesh struct {
	M *Mesh

	// NumOwned Q2 nodes carry global ids [Offset, Offset+NumOwned).
	NumOwned int
	Offset   int64
	NGlobal  int64

	// OwnedPos2 gives the half-unit position of each owned Q2 node,
	// indexed by gid-Offset (sorted by position key, so node 0 of rank 0
	// is the domain origin vertex — the pressure pin carries over).
	OwnedPos2 [][3]uint32

	// Nodes holds the 27 node gids of each local element, aligned with
	// M.Leaves, in lexicographic order n = i + 3j + 9k (fem.Q2NodeOffset).
	Nodes [][27]int64

	// VertLocal maps an owned Q2 node to the Q1 local index of the same
	// vertex, or -1 for edge/face/center nodes. Q1ToQ2 is the inverse
	// (total: every Q1 node is a Q2 vertex).
	VertLocal []int32
	Q1ToQ2    []int32

	posToLocal map[uint64]int32 // owned half-unit position key -> local index
	refPos     map[int64][3]uint32
	vertBit    uint32 // element edge length in half-units (node spacing)
}

// IsVertex reports whether the half-unit position p2 is an element
// corner (a Q1 vertex) rather than an edge/face/center node. On the
// uniform mesh Q2 requires, node positions are multiples of the element
// edge length h (the Q2NodePos2 spacing) and corners are the even
// multiples, so the test is a single bit per axis. A plain parity test
// would be wrong away from the finest level: coarse-element midpoints
// have even half-unit coordinates too.
func (q *Q2Mesh) IsVertex(p2 [3]uint32) bool {
	return (p2[0]|p2[1]|p2[2])&q.vertBit == 0
}

// Q2NodePos2 returns the half-unit position of Q2 node n (lexicographic,
// n = i + 3j + 9k) of octant e.
func Q2NodePos2(e morton.Octant, n int) [3]uint32 {
	h := e.Len()
	i, j, k := uint32(n%3), uint32(n/3%3), uint32(n/9)
	return [3]uint32{2*e.X + i*h, 2*e.Y + j*h, 2*e.Z + k*h}
}

// q2OwnerRank returns the rank owning the Q2 node at half-unit position
// p2: the owner of the most-negative incident finest-level cell,
// computable from partition markers alone.
func q2OwnerRank(f *forest.Forest, p2 [3]uint32) int {
	var q [3]uint32
	for a := 0; a < 3; a++ {
		q[a] = p2[a] >> 1
		if p2[a]&1 == 0 && q[a] > 0 {
			q[a]--
		}
	}
	cell := forest.Octant{O: morton.Octant{X: q[0], Y: q[1], Z: q[2], Level: morton.MaxLevel}}
	var owners [1]int
	return f.Owners(cell, owners[:0])[0]
}

// ExtractQ2 builds the distributed Q2 node numbering on top of an
// mesh extracted from f (collective). The mesh must be conforming (a
// uniformly refined single tree): hanging Q2 constraints are not
// implemented, and multi-tree or mapped meshes are out of scope.
func ExtractQ2(f *forest.Forest, m *Mesh) *Q2Mesh {
	if f.Conn.NumTrees() != 1 || m.Geom != nil {
		panic("mesh: Q2 extraction requires a one-tree axis-aligned mesh")
	}
	r := m.Rank
	var hang int64
	for ei := range m.Corners {
		for c := 0; c < 8; c++ {
			if m.Corners[ei][c].Hanging() {
				hang++
			}
		}
	}
	if r.AllreduceInt64(hang) > 0 {
		panic("mesh: Q2 extraction requires a conforming mesh (no hanging nodes); " +
			"run without adaptation or use Order 1")
	}

	q := &Q2Mesh{M: m, vertBit: 1}
	if len(m.Leaves) > 0 {
		lvl := m.Leaves[0].Level
		for _, e := range m.Leaves {
			if e.Level != lvl {
				panic("mesh: Q2 extraction requires a uniform refinement level")
			}
		}
		q.vertBit = m.Leaves[0].Len()
	}
	ownedSet := make(map[uint64][3]uint32)
	need := make(map[uint64][3]uint32)
	pos := make([][27][3]uint32, len(m.Leaves))
	for ei, e := range m.Leaves {
		for n := 0; n < 27; n++ {
			p := Q2NodePos2(e, n)
			pos[ei][n] = p
			k := posKey(p)
			if _, seen := need[k]; seen {
				continue
			}
			need[k] = p
			if q2OwnerRank(f, p) == r.ID() {
				ownedSet[k] = p
			}
		}
	}

	// Number the owned nodes deterministically by position key.
	keys := make([]uint64, 0, len(ownedSet))
	for k := range ownedSet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	q.NumOwned = len(keys)
	q.Offset = r.ExScan(int64(q.NumOwned))
	q.NGlobal = r.AllreduceInt64(int64(q.NumOwned))
	q.OwnedPos2 = make([][3]uint32, q.NumOwned)
	q.posToLocal = make(map[uint64]int32, q.NumOwned)
	for i, k := range keys {
		q.OwnedPos2[i] = ownedSet[k]
		q.posToLocal[k] = int32(i)
	}

	// Resolve global ids for every referenced position (sparse, only
	// actual neighbor ranks exchange messages — same protocol as Extract).
	gid := make(map[uint64]int64, len(need))
	p := r.Size()
	askPos := make([][][3]uint32, p)
	for k, pp := range need {
		o := q2OwnerRank(f, pp)
		if o == r.ID() {
			li, ok := q.posToLocal[k]
			if !ok {
				panic(fmt.Sprintf("mesh: rank %d owns Q2 position %v but did not enumerate it", r.ID(), pp))
			}
			gid[k] = q.Offset + int64(li)
		} else {
			askPos[o] = append(askPos[o], pp)
		}
	}
	var owners []int
	var askOut []any
	var askNB []int
	for j := range askPos {
		if len(askPos[j]) == 0 {
			continue
		}
		owners = append(owners, j)
		askOut = append(askOut, askPos[j])
		askNB = append(askNB, 12*len(askPos[j]))
	}
	froms, asks := r.AlltoallvSparse(owners, askOut, askNB)
	resp := make([]sim.Payload, len(froms))
	for i, d := range asks {
		asked := d.([][3]uint32)
		gids := make([]int64, len(asked))
		for k, pp := range asked {
			li, ok := q.posToLocal[posKey(pp)]
			if !ok {
				panic(fmt.Sprintf("mesh: rank %d asked for Q2 position %v not owned by rank %d", froms[i], pp, r.ID()))
			}
			gids[k] = q.Offset + int64(li)
		}
		resp[i] = sim.Payload{Data: gids, NBytes: 8 * len(gids)}
	}
	back := make([]sim.Payload, len(owners))
	r.NeighborExchange(froms, resp, owners, back)
	for k, o := range owners {
		gids := back[k].Data.([]int64)
		for i, g := range gids {
			gid[posKey(askPos[o][i])] = g
		}
	}

	// Fill per-element node gids and the referenced position table.
	q.Nodes = make([][27]int64, len(m.Leaves))
	q.refPos = make(map[int64][3]uint32, len(need))
	for ei := range pos {
		for n := 0; n < 27; n++ {
			g := gid[posKey(pos[ei][n])]
			q.Nodes[ei][n] = g
			q.refPos[g] = pos[ei][n]
		}
	}

	// Vertex <-> Q1 local index maps (ownership rules coincide, so both
	// directions are total over the owned vertex set and purely local).
	q.VertLocal = make([]int32, q.NumOwned)
	q.Q1ToQ2 = make([]int32, m.NumOwned)
	for i := range q.Q1ToQ2 {
		q.Q1ToQ2[i] = -1
	}
	verts := 0
	for i, p2 := range q.OwnedPos2 {
		q.VertLocal[i] = -1
		if q.IsVertex(p2) {
			li, ok := m.LocalIndex(0, [3]uint32{p2[0] >> 1, p2[1] >> 1, p2[2] >> 1})
			if !ok {
				panic(fmt.Sprintf("mesh: Q2 vertex %v owned here but its Q1 node is not", p2))
			}
			q.VertLocal[i] = li
			q.Q1ToQ2[li] = int32(i)
			verts++
		}
	}
	if verts != m.NumOwned {
		panic(fmt.Sprintf("mesh: Q2 enumerated %d owned vertices, Q1 owns %d nodes", verts, m.NumOwned))
	}
	return q
}

// RefPos returns the half-unit position of a referenced Q2 node gid; it
// panics if the gid was never referenced by this rank's elements.
func (q *Q2Mesh) RefPos(g int64) [3]uint32 {
	p, ok := q.refPos[g]
	if !ok {
		panic(fmt.Sprintf("mesh: Q2 gid %d not referenced on this rank", g))
	}
	return p
}

// LocalIndex2 returns the local index of the owned Q2 node at half-unit
// position p2 and whether this rank owns it.
func (q *Q2Mesh) LocalIndex2(p2 [3]uint32) (int32, bool) {
	li, ok := q.posToLocal[posKey(p2)]
	return li, ok
}
