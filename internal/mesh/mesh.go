// Package mesh implements ExtractMesh (paper §IV.B): building a
// distributed trilinear hexahedral finite-element mesh from a 2:1-balanced
// linear octree. It establishes a unique global numbering of the
// independent degrees of freedom, identifies hanging nodes on
// nonconforming faces and edges, attaches the algebraic interpolation
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
package mesh

import (
	"fmt"
	"math/bits"
	"sort"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/morton"
	"rhea/internal/octree"
	"rhea/internal/sim"
)

// Corner describes one of the eight corners of an element: its node
// position and the independent global degrees of freedom it interpolates
// (a single self-entry with weight 1 for an independent corner).
type Corner struct {
	Pos     [3]uint32  // node position in finest-level integer units
	Hanging bool       // true if this corner is a constrained hanging node
	N       int8       // number of master dofs (1, 2, or 4)
	GID     [4]int64   // master global node ids
	W       [4]float64 // interpolation weights (sum to 1)
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

	// OwnedPos gives the position of each owned node, indexed by
	// gid-Offset (sorted by position key; for forest meshes the position
	// is in the frame of the node's canonical tree, OwnedTree).
	OwnedPos [][3]uint32

	// Multi-tree (forest) extraction extras; nil for single-tree meshes
	// built by Extract.
	Trees     []int32              // per-element tree id, aligned with Leaves
	Conn      *forest.Connectivity // forest macro-mesh
	Geom      Geometry             // node mapping (nil => axis-aligned fem.Domain scaling)
	X         [][8][3]float64      // per-element physical corner coordinates (when Geom != nil)
	OwnedX    [][3]float64         // physical coordinates of owned nodes (when Geom != nil)
	OwnedTree []int32              // canonical tree of each owned node
	// OwnedCell and OwnedCellPos record, per owned node, the incident
	// finest-level cell that determined its ownership and the node's
	// position in that cell's tree frame — the representation multigrid
	// transfer uses to find the (always local) coarse containing element.
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

	posToLocal map[uint64]int32 // owned position key -> local node index
	gidCache   map[uint64]int64 // referenced position key -> global id (incl. remote)

	// Forest-mesh counterparts of posToLocal/gidCache, keyed by the
	// canonical (tree, position) of each node.
	posToLocalT map[nodeKey]int32
	gidCacheT   map[nodeKey]int64

	// Ghost exchange plan over referenced global ids: used to gather
	// remote nodal values (field transfer, viscosity evaluation, output).
	// refAskers/refOwners persist the sparse neighborhood — the ranks
	// that reference this rank's nodes (refSend non-empty) and the ranks
	// this rank references nodes from (refWant non-empty) — so
	// GatherReferenced exchanges messages only with actual neighbors.
	refWant   [][]int64 // per rank: remote gids this rank references
	refSend   [][]int32 // per rank: local node indices to send on request
	refAskers []int
	refOwners []int

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

// leafSet is a sorted collection of octants (local + ghost) supporting
// containment queries.
type leafSet struct {
	leaves []morton.Octant
}

func newLeafSet(leaves []morton.Octant) *leafSet {
	s := &leafSet{leaves: leaves}
	sort.Slice(s.leaves, func(i, j int) bool { return morton.Less(s.leaves[i], s.leaves[j]) })
	// Deduplicate (ghosts may arrive multiple times).
	out := s.leaves[:0]
	for i, o := range s.leaves {
		if i == 0 || o != s.leaves[i-1] {
			out = append(out, o)
		}
	}
	s.leaves = out
	return s
}

// findContaining returns the leaf that is o or an ancestor of o.
func (s *leafSet) findContaining(o morton.Octant) (morton.Octant, bool) {
	k := o.Key()
	i := sort.Search(len(s.leaves), func(i int) bool { return s.leaves[i].Key() > k })
	if i == 0 {
		return morton.Octant{}, false
	}
	l := s.leaves[i-1]
	if l.ContainsOrEqual(o) {
		return l, true
	}
	return morton.Octant{}, false
}

// Extract builds the distributed finite-element mesh from a balanced
// octree (collective). The tree must satisfy the 2:1 condition; Extract
// verifies constraints only in the sense that inconsistent input causes
// an explicit panic during id resolution.
func Extract(t *octree.Tree) *Mesh {
	r := t.Rank()
	m := &Mesh{Rank: r}
	m.Leaves = append(m.Leaves, t.Leaves()...)

	// Gather the ghost layer: every local leaf is sent to each remote
	// rank whose segment overlaps one of its 26 neighbor octants.
	ghosts := exchangeGhosts(t)
	m.NumGhostLeaves = len(ghosts)
	all := newLeafSet(append(append([]morton.Octant(nil), m.Leaves...), ghosts...))

	// Classify every element corner and record master positions.
	type cornerRef struct {
		pos    [3]uint32
		hang   bool
		n      int8
		master [4][3]uint32
		w      [4]float64
	}
	refs := make([][8]cornerRef, len(m.Leaves))
	ownedSet := make(map[uint64][3]uint32)
	need := make(map[uint64][3]uint32) // all referenced master positions

	for ei, e := range m.Leaves {
		L := e.Level
		h := e.Len()
		for c := 0; c < 8; c++ {
			P := cornerPos(e, c)
			cr := cornerRef{pos: P}
			if alignLevel(P) == L && L > 0 && hasCoarserTouching(all, P, L) {
				// Hanging: masters at P +/- h along misaligned axes.
				var axes []int
				coarse := uint32(1)<<(morton.MaxLevel-uint32(L)+1) - 1
				for a := 0; a < 3; a++ {
					if P[a]&coarse != 0 {
						axes = append(axes, a)
					}
				}
				cr.hang = true
				cr.n = int8(1 << len(axes))
				w := 1.0 / float64(int(cr.n))
				for k := 0; k < int(cr.n); k++ {
					mp := P
					for bi, a := range axes {
						if k>>bi&1 == 0 {
							mp[a] -= h
						} else {
							mp[a] += h
						}
					}
					cr.master[k] = mp
					cr.w[k] = w
					need[posKey(mp)] = mp
				}
			} else {
				cr.n = 1
				cr.master[0] = P
				cr.w[0] = 1
				need[posKey(P)] = P
				if ownerRank(t, P) == r.ID() {
					ownedSet[posKey(P)] = P
				}
			}
			refs[ei][c] = cr
		}
	}

	// Number the owned nodes deterministically by position key.
	keys := make([]uint64, 0, len(ownedSet))
	for k := range ownedSet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	m.NumOwned = len(keys)
	m.layout = la.NewLayout(r, m.NumOwned)
	m.Offset, m.NGlobal = m.layout.Start(), m.layout.N()
	m.OwnedPos = make([][3]uint32, m.NumOwned)
	m.posToLocal = make(map[uint64]int32, m.NumOwned)
	for i, k := range keys {
		m.OwnedPos[i] = ownedSet[k]
		m.posToLocal[k] = int32(i)
	}

	// Resolve global ids for every referenced position.
	m.gidCache = make(map[uint64]int64, len(need))
	p := r.Size()
	askPos := make([][][3]uint32, p)
	for k, pos := range need {
		o := ownerRank(t, pos)
		if o == r.ID() {
			li, ok := m.posToLocal[k]
			if !ok {
				panic(fmt.Sprintf("mesh: rank %d owns position %v but did not enumerate it", r.ID(), pos))
			}
			m.gidCache[k] = m.Offset + int64(li)
		} else {
			askPos[o] = append(askPos[o], pos)
		}
	}
	// Route the position queries to their owners (sparse: only actual
	// neighbor ranks exchange messages), answer them, and persist the
	// neighborhood for GatherReferenced.
	var askOut []any
	var askNB []int
	for j := range askPos {
		if len(askPos[j]) == 0 {
			continue
		}
		m.refOwners = append(m.refOwners, j)
		askOut = append(askOut, askPos[j])
		askNB = append(askNB, 12*len(askPos[j]))
	}
	froms, asks := r.AlltoallvSparse(m.refOwners, askOut, askNB)
	m.refSend = make([][]int32, p)
	m.refAskers = froms
	resp := make([]any, len(froms))
	respNB := make([]int, len(froms))
	for i, d := range asks {
		asked := d.([][3]uint32)
		gids := make([]int64, len(asked))
		send := make([]int32, len(asked))
		for k, pos := range asked {
			li, ok := m.posToLocal[posKey(pos)]
			if !ok {
				panic(fmt.Sprintf("mesh: rank %d asked for position %v not owned by rank %d", froms[i], pos, r.ID()))
			}
			gids[k] = m.Offset + int64(li)
			send[k] = li
		}
		resp[i] = gids
		respNB[i] = 8 * len(gids)
		m.refSend[froms[i]] = send
	}
	back := r.NeighborExchange(m.refAskers, resp, respNB, m.refOwners)
	m.refWant = make([][]int64, p)
	for k, o := range m.refOwners {
		gids := back[k].([]int64)
		for i, g := range gids {
			m.gidCache[posKey(askPos[o][i])] = g
		}
		m.refWant[o] = gids
	}

	// Fill final corner tables with resolved gids.
	m.Corners = make([][8]Corner, len(m.Leaves))
	for ei := range refs {
		for c := 0; c < 8; c++ {
			cr := &refs[ei][c]
			co := Corner{Pos: cr.pos, Hanging: cr.hang, N: cr.n}
			for k := 0; k < int(cr.n); k++ {
				co.GID[k] = m.gidCache[posKey(cr.master[k])]
				co.W[k] = cr.w[k]
			}
			m.Corners[ei][c] = co
		}
	}
	return m
}

// hasCoarserTouching reports whether any leaf touching node P has level
// strictly less than L. The touching leaves are the containers of the up
// to eight finest-level cells incident to P.
func hasCoarserTouching(all *leafSet, P [3]uint32, L uint8) bool {
	for d := 0; d < 8; d++ {
		var q [3]int64
		q[0] = int64(P[0])
		q[1] = int64(P[1])
		q[2] = int64(P[2])
		if d&1 != 0 {
			q[0]--
		}
		if d&2 != 0 {
			q[1]--
		}
		if d&4 != 0 {
			q[2]--
		}
		if q[0] < 0 || q[1] < 0 || q[2] < 0 ||
			q[0] >= morton.RootLen || q[1] >= morton.RootLen || q[2] >= morton.RootLen {
			continue
		}
		cell := morton.Octant{X: uint32(q[0]), Y: uint32(q[1]), Z: uint32(q[2]), Level: morton.MaxLevel}
		if leaf, ok := all.findContaining(cell); ok && leaf.Level < L {
			return true
		}
	}
	return false
}

// ownerRank returns the rank owning node position P: the owner of the
// finest-level cell in the most-positive direction from P (clamped at the
// domain boundary). This is computable from the partition markers alone.
func ownerRank(t *octree.Tree, P [3]uint32) int {
	var q [3]uint32
	for a := 0; a < 3; a++ {
		q[a] = P[a]
		if q[a] >= morton.RootLen {
			q[a] = morton.RootLen - 1
		}
	}
	cell := morton.Octant{X: q[0], Y: q[1], Z: q[2], Level: morton.MaxLevel}
	owners := t.Owners(cell, nil)
	return owners[0]
}

// exchangeGhosts sends each local leaf to every remote rank adjacent to
// it and returns the ghost leaves received.
func exchangeGhosts(t *octree.Tree) []morton.Octant {
	r := t.Rank()
	p := r.Size()
	byRank := make([][]morton.Octant, p)
	marked := make([]int, p) // last leaf index sent to rank, -1 none
	for i := range marked {
		marked[i] = -1
	}
	var nbuf []morton.Octant
	var owners []int
	for li, o := range t.Leaves() {
		nbuf = o.AllNeighbors(nbuf[:0])
		for _, n := range nbuf {
			owners = t.Owners(n, owners[:0])
			for _, ow := range owners {
				if ow != r.ID() && marked[ow] != li {
					byRank[ow] = append(byRank[ow], o)
					marked[ow] = li
				}
			}
		}
	}
	var dests []int
	var out []any
	var nb []int
	for j := range byRank {
		if len(byRank[j]) == 0 {
			continue
		}
		dests = append(dests, j)
		out = append(out, byRank[j])
		nb = append(nb, 16*len(byRank[j]))
	}
	_, in := r.AlltoallvSparse(dests, out, nb)
	var ghosts []morton.Octant
	for _, d := range in {
		ghosts = append(ghosts, d.([]morton.Octant)...)
	}
	return ghosts
}

// Layout returns the la.Layout over the mesh's independent nodes: the
// one built at extraction, shared by every caller (no communication, no
// allocation).
func (m *Mesh) Layout() *la.Layout { return m.layout }

// LocalIndex returns the local index of the owned node at position p and
// whether this rank owns it.
func (m *Mesh) LocalIndex(p [3]uint32) (int32, bool) {
	li, ok := m.posToLocal[posKey(p)]
	return li, ok
}

// LocalIndexTree returns the local index of the owned node at canonical
// position (tree, p) and whether this rank owns it. On forest meshes the
// key must be the node's canonical representation (lowest owning tree,
// canonical in-tree position); on single-tree meshes tree is ignored.
// Cross-rank mesh couplings (the multigrid repartition plans) use this to
// resolve node identity independently of the partition-dependent global
// numbering.
func (m *Mesh) LocalIndexTree(tree int32, p [3]uint32) (int32, bool) {
	if m.posToLocalT != nil {
		li, ok := m.posToLocalT[nodeKey{tree, posKey(p)}]
		return li, ok
	}
	return m.LocalIndex(p)
}

// GID returns the global id of the referenced node at position p; it
// panics if p was never referenced by this rank's elements.
func (m *Mesh) GID(p [3]uint32) int64 {
	g, ok := m.gidCache[posKey(p)]
	if !ok {
		panic(fmt.Sprintf("mesh: position %v not referenced on rank %d", p, m.Rank.ID()))
	}
	return g
}

// GatherReferenced returns the values of every node this rank references
// (its own plus remote masters), keyed by global id (collective). u must
// be laid out over the mesh nodes.
func (m *Mesh) GatherReferenced(u *la.Vec) map[int64]float64 {
	r := m.Rank
	vals := make(map[int64]float64, len(m.gidCache))
	for i := 0; i < m.NumOwned; i++ {
		vals[m.Offset+int64(i)] = u.Data[i]
	}
	out := make([]any, len(m.refAskers))
	nb := make([]int, len(m.refAskers))
	for k, j := range m.refAskers {
		v := la.GetBuf(len(m.refSend[j]))
		for n, li := range m.refSend[j] {
			v[n] = u.Data[li]
		}
		out[k] = v
		nb[k] = 8 * len(v)
	}
	in := r.NeighborExchange(m.refAskers, out, nb, m.refOwners)
	for k, o := range m.refOwners {
		got := in[k].([]float64)
		for n, g := range m.refWant[o] {
			vals[g] = got[n]
		}
		la.PutBuf(got)
	}
	return vals
}

// CornerValue evaluates the nodal field at element ei's corner c,
// resolving hanging-node interpolation, from a gathered value map.
func (m *Mesh) CornerValue(vals map[int64]float64, ei, c int) float64 {
	co := &m.Corners[ei][c]
	var s float64
	for k := 0; k < int(co.N); k++ {
		s += co.W[k] * vals[co.GID[k]]
	}
	return s
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
			if m.Corners[ei][c].Hanging {
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
