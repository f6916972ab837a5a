// Package mesh implements ExtractMesh (paper §IV.B): building a
// distributed trilinear hexahedral finite-element mesh from a 2:1-balanced
// forest of linear octrees (the unit box is the one-tree forest). It
// establishes a unique global numbering of the independent degrees of
// freedom, identifies hanging nodes on nonconforming faces and edges —
// across tree boundaries included — attaches the algebraic interpolation
// constraints that eliminate them at the element level, and gathers the
// ghost leaf layer needed to do all of this without further communication.
//
// Node/hanging-node theory used throughout (valid because BalanceTree
// enforces the full face+edge+corner 2:1 condition):
//
//   - A node position P is "l-aligned" when every coordinate is divisible
//     by 2^(MaxLevel-l). The alignment level of P is the smallest such l.
//   - A corner P of a level-L element hangs iff its alignment level is
//     exactly L and some leaf touching P has level L-1.
//   - A hanging node's masters are obtained arithmetically: for each axis
//     in which P is not (L-1)-aligned, the two positions P +/- h (h = the
//     element edge length); one misaligned axis gives an edge-hanging node
//     with 2 masters at weight 1/2, two misaligned axes give a
//     face-hanging node with 4 masters at weight 1/4. Masters are always
//     independent nodes (no constraint chains) under full 2:1 balance.
//
// Extraction works on sorted arrays: the leaf set is the local leaves
// with the sorted ghosts on either side, searched by Morton key; node
// positions are resolved once through a table local to the call
// (nodetable.go); owned nodes are numbered in (tree, position key) order,
// which LocalIndex searches. No Go map is keyed by an octant or a node
// position.
//
// There is one way to address a node a rank references: its slot. Owned
// nodes take slots [0, NumOwned) in numbering order, the off-rank masters
// follow in ascending global id, the corner table holds slots, and the
// mesh carries the one ghost-exchange plan over that tail (Mesh.GX) —
// read off the ask/reply that numbers the off-rank nodes, so extraction
// ends with everything a solver needs to evaluate constraints and no
// later negotiation. GID(slot) recovers a global id where one is needed.
package mesh

import (
	"math/bits"
	"sort"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Corner describes one of the eight corners of an element by the
// independent nodes it interpolates, addressed by slot (see Mesh.GX): a
// single self-entry with weight 1 for an independent corner, 2 or 4
// masters at weight 1/2 or 1/4 for a hanging one.
type Corner struct {
	N    int8       // number of master nodes (1, 2, or 4)
	Slot [4]int32   // master node slots
	W    [4]float64 // interpolation weights (sum to 1)
}

// Hanging reports whether the corner is a constrained hanging node.
func (c *Corner) Hanging() bool { return c.N > 1 }

// Value evaluates the corner from a slot-space buffer of nodal values,
// resolving the hanging-node interpolation.
func (c *Corner) Value(buf []float64) float64 {
	var s float64
	for k := 0; k < int(c.N); k++ {
		s += c.W[k] * buf[c.Slot[k]]
	}
	return s
}

// Mesh is one rank's portion of the extracted finite-element mesh.
type Mesh struct {
	Rank *sim.Rank

	// Leaves are the local elements, in space-filling-curve order.
	Leaves []morton.Octant
	// Corners holds per-element constraint data, aligned with Leaves.
	Corners [][8]Corner

	// NumOwned is the number of independent nodes owned by this rank;
	// they carry global ids [Offset, Offset+NumOwned).
	NumOwned int
	Offset   int64
	NGlobal  int64

	// OwnedPos gives the position of each owned node in the frame of its
	// canonical tree, OwnedTree, indexed by gid-Offset (sorted by
	// canonical tree, then position key).
	OwnedPos  [][3]uint32
	OwnedTree []int32

	Trees  []int32              // per-element tree id, aligned with Leaves
	Conn   *forest.Connectivity // forest macro-mesh
	Geom   Geometry             // node mapping (nil => axis-aligned fem.Domain scaling)
	X      [][8][3]float64      // per-element physical corner coordinates (when Geom != nil)
	OwnedX [][3]float64         // physical coordinates of owned nodes (when Geom != nil)
	// OwnedCell and OwnedCellPos record, per owned node, the incident
	// finest-level cell that determined its ownership and the node's
	// position in that cell's tree frame. Node ownership is decided here
	// and nowhere else: multigrid transfer and repartitioning read these
	// to find the (always local) element containing the cell.
	OwnedCell    []forest.Octant
	OwnedCellPos [][3]uint32

	// Q2 is the optional second-order node layer (built by ExtractQ2 and
	// attached by the caller); stokes requires it when Options.Order == 2.
	Q2 *Q2Mesh

	// GeomCache holds the discretization layer's per-element quadrature
	// geometry for mapped meshes (set on first use by fem.ElemGeoms and
	// shared by matfree, gmg, stokes and advect so the Jacobian
	// inversions run once per mesh, not once per consumer). Typed any to
	// avoid an upward dependency on the fem package; per-rank meshes are
	// confined to their rank's goroutine, matching every other cache on
	// this struct.
	GeomCache any

	// layout is the node layout, built once with the numbering (its
	// offsets are the one collective that also yields Offset and NGlobal).
	layout *la.Layout

	// GX is the ghost-exchange plan over the off-rank nodes this rank's
	// corners reference, and with it the mesh's one node numbering: slot s
	// < NumOwned is owned node s, slot NumOwned+k is ghost k of the plan
	// (ascending global id). Corners address nodes by slot; everything
	// that samples nodal fields at element corners or scatters element
	// contributions back — the Stokes and multigrid operators, transport,
	// field transfer, error indication, diagnostics — gathers into and
	// scatters out of slot-space buffers through this plan, at any block
	// width. Extract derives it from the handshake that numbers the
	// nodes, so it costs no communication of its own.
	GX *la.GhostExchange

	// NumGhostLeaves records the size of the ghost element layer.
	NumGhostLeaves int
}

// posKey packs a node position into a single comparable key.
func posKey(p [3]uint32) uint64 {
	return uint64(p[0]) | uint64(p[1])<<21 | uint64(p[2])<<42
}

// cornerPos returns the position of corner c (z-order) of octant o.
func cornerPos(o morton.Octant, c int) [3]uint32 {
	h := o.Len()
	p := [3]uint32{o.X, o.Y, o.Z}
	if c&1 != 0 {
		p[0] += h
	}
	if c&2 != 0 {
		p[1] += h
	}
	if c&4 != 0 {
		p[2] += h
	}
	return p
}

// alignLevel returns the smallest level l such that P is l-aligned.
func alignLevel(p [3]uint32) uint8 {
	lvl := 0
	for _, c := range p {
		tz := bits.TrailingZeros32(c)
		if tz > morton.MaxLevel {
			tz = morton.MaxLevel
		}
		if l := morton.MaxLevel - tz; l > lvl {
			lvl = l
		}
	}
	return uint8(lvl)
}

// Layout returns the la.Layout over the mesh's independent nodes: the
// one built at extraction, shared by every caller (no communication, no
// allocation).
func (m *Mesh) Layout() *la.Layout { return m.layout }

// LocalIndex returns the local index of the owned node at canonical
// position (tree, p) — the lowest tree sharing the node and the position
// in that tree's frame — and whether this rank owns it. Cross-rank mesh
// couplings (the multigrid repartition plans) use this to resolve node
// identity independently of the partition-dependent global numbering.
// The owned nodes are sorted by (tree, position key): a binary search.
func (m *Mesh) LocalIndex(tree int32, p [3]uint32) (int32, bool) {
	k := posKey(p)
	i := sort.Search(m.NumOwned, func(i int) bool {
		if t := m.OwnedTree[i]; t != tree {
			return t > tree
		}
		return posKey(m.OwnedPos[i]) >= k
	})
	if i < m.NumOwned && m.OwnedTree[i] == tree && m.OwnedPos[i] == p {
		return int32(i), true
	}
	return 0, false
}

// NSlots returns the number of nodes this rank addresses: the owned
// ones and the ghosts after them.
func (m *Mesh) NSlots() int { return m.NumOwned + m.GX.NumGhosts() }

// GatherSlots returns the slot-space copy of each nodal field: the owned
// values followed by the ghosts', fetched for all fields in one exchange
// (collective). Corner.Value samples such a buffer.
func (m *Mesh) GatherSlots(owned ...[]float64) [][]float64 {
	bufs := make([][]float64, len(owned))
	ghost := make([][]float64, len(owned))
	for f, v := range owned {
		bufs[f] = make([]float64, m.NSlots())
		copy(bufs[f], v)
		ghost[f] = bufs[f][m.NumOwned:]
	}
	m.GX.GatherMulti(owned, ghost)
	return bufs
}

// GID returns the global id of the node in a slot, for the few places
// that need one: rows and columns of assembled matrices, contributions
// shipped to a node's owner, partition-independent digests.
func (m *Mesh) GID(slot int32) int64 {
	if int(slot) < m.NumOwned {
		return m.Offset + int64(slot)
	}
	return m.GX.Ghosts()[int(slot)-m.NumOwned]
}

// Stats summarizes the mesh (collective).
type Stats struct {
	Elements     int64
	Nodes        int64
	HangingLocal int64 // hanging element corners on this rank (with multiplicity)
}

// GlobalStats returns element/node counts (collective).
func (m *Mesh) GlobalStats() Stats {
	var hang int64
	for ei := range m.Corners {
		for c := 0; c < 8; c++ {
			if m.Corners[ei][c].Hanging() {
				hang++
			}
		}
	}
	return Stats{
		Elements:     m.Rank.AllreduceInt64(int64(len(m.Leaves))),
		Nodes:        m.NGlobal,
		HangingLocal: m.Rank.AllreduceInt64(hang),
	}
}

// FindLocalElement returns the index of the local element that is (tree,
// o) or an ancestor of it, or -1.
func (m *Mesh) FindLocalElement(tree int32, o morton.Octant) int {
	k := o.Key()
	i := sort.Search(len(m.Leaves), func(i int) bool {
		if m.Trees[i] != tree {
			return m.Trees[i] > tree
		}
		return m.Leaves[i].Key() > k
	})
	if i == 0 || m.Trees[i-1] != tree || !m.Leaves[i-1].ContainsOrEqual(o) {
		return -1
	}
	return i - 1
}
