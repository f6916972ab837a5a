package mesh

import (
	"fmt"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/morton"
)

// Q2 node layer: the 27-node triquadratic element adds edge, face and
// center nodes to the trilinear corner set. Positions are kept in
// half-unit integer coordinates — twice the finest-level units of the
// octree — so every Q2 node of every element has exact integer
// coordinates (a finest-level element has odd-coordinate midpoints).
// Doubled coordinates reach 2*RootLen = 2^20, which still fits the
// 21-bit fields of posKey, so Extract's node table and its numbering
// handshake (numberNodes: position-key order, ask the owners, derive the
// ghost plan) serve the layer unchanged.
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
// layered over the Q1 Mesh that produced it. It addresses nodes the way
// the mesh does: by slot, owned nodes first (slot = gid-Offset), then the
// off-rank nodes its elements reference in ascending gid, with one ghost
// plan GX over that tail, derived from the handshake that numbered them.
type Q2Mesh struct {
	M *Mesh

	// NumOwned Q2 nodes carry global ids [Offset, Offset+NumOwned).
	NumOwned int
	Offset   int64
	NGlobal  int64

	// OwnedPos2 gives the half-unit position of each owned Q2 node,
	// indexed by slot (sorted by position key, so node 0 of rank 0 is the
	// domain origin vertex — the pressure pin carries over).
	OwnedPos2 [][3]uint32

	// Nodes holds the 27 node slots of each local element, aligned with
	// M.Leaves, in lexicographic order n = i + 3j + 9k (fem.Q2NodeOffset).
	Nodes [][27]int32

	// GX is the ghost-exchange plan over the ghost slots, at any block
	// width: 4 for the coupled operator, 1 and 3 for the p-level.
	GX *la.GhostExchange

	// VertLocal maps an owned Q2 node to the Q1 local index of the same
	// vertex, or -1 for edge/face/center nodes. Q1ToQ2 is the inverse
	// (total: every Q1 node is a Q2 vertex).
	VertLocal []int32
	Q1ToQ2    []int32

	layout  *la.Layout
	vertBit uint32 // element edge length in half-units (node spacing)
}

// Layout returns the la.Layout over the owned Q2 nodes.
func (q *Q2Mesh) Layout() *la.Layout { return q.layout }

// NSlots returns the number of Q2 nodes this rank addresses: the owned
// ones and the ghosts after them.
func (q *Q2Mesh) NSlots() int { return q.NumOwned + q.GX.NumGhosts() }

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
	// Every referenced position once, in first-reference order, numbered
	// and planned by the handshake Extract uses. The element tables hold
	// node indices until the slots are known.
	var nodes []nodeInfo
	tab := newNodeTable(8 * len(m.Leaves))
	q.Nodes = make([][27]int32, len(m.Leaves))
	for ei, e := range m.Leaves {
		for n := 0; n < 27; n++ {
			p := Q2NodePos2(e, n)
			k := posKey(p)
			ni, ok := tab.get(0, k)
			if !ok {
				ni = int32(len(nodes))
				nodes = append(nodes, nodeInfo{canon: forest.NodePos{Pos: p}, owner: int32(q2OwnerRank(f, p))})
				tab.put(0, k, ni)
			}
			q.Nodes[ei][n] = ni
		}
	}
	need := make([]int32, len(nodes))
	for i := range need {
		need[i] = int32(i)
	}
	var owned, slot []int32
	q.layout, owned, slot, q.GX = numberNodes(r, nodes, need)
	q.NumOwned = len(owned)
	q.Offset, q.NGlobal = q.layout.Start(), q.layout.N()
	q.OwnedPos2 = make([][3]uint32, q.NumOwned)
	for li, i := range owned {
		q.OwnedPos2[li] = nodes[i].canon.Pos
	}
	for ei := range q.Nodes {
		for n := range q.Nodes[ei] {
			q.Nodes[ei][n] = slot[q.Nodes[ei][n]]
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
