package mesh

import (
	"fmt"
	"math"
	"sort"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/morton"
)

// Geometry maps forest node positions to physical coordinates. Mapped
// (multi-tree) meshes carry one; the resulting per-element corner
// coordinates drive general isoparametric Jacobians in the
// discretization layers instead of the axis-aligned constant-h scaling.
//
// Implementations must be consistent across tree boundaries: every
// (tree, position) representation of a shared node must map to the same
// physical point. Both geometries below inherit this from the
// connectivity (shared tree faces share their four corner vertices, and
// the trilinear face restriction depends only on those).
type Geometry interface {
	NodeCoord(tree int32, p [3]uint32) [3]float64
}

// TrilinearGeometry maps each tree by trilinear interpolation of its
// eight corner vertices — the general curved-hexahedral macro-mesh map
// (forest.Connectivity.TreeCoord).
type TrilinearGeometry struct {
	Conn *forest.Connectivity
}

// NodeCoord implements Geometry.
func (g TrilinearGeometry) NodeCoord(tree int32, p [3]uint32) [3]float64 {
	return g.Conn.TreeCoord(tree, p)
}

// ShellGeometry maps a cubed-sphere forest (forest.CubedSphere) onto a
// spherical shell: the trilinear tree map supplies the angular
// direction, and the radius is linear in each tree's local z coordinate
// (the radial axis of every cubed-sphere tree), so nodes with z = 0 or
// z = RootLen lie exactly on the inner and outer spheres. Inter-tree
// transforms of the cubed sphere always map radial axis to radial axis,
// which keeps the radius consistent across representations.
type ShellGeometry struct {
	Conn           *forest.Connectivity
	RInner, ROuter float64
}

// NewShellGeometry returns the shell map for forest.CubedSphere(n) with
// the paper's radii (inner 1, outer 2).
func NewShellGeometry(conn *forest.Connectivity) ShellGeometry {
	return ShellGeometry{Conn: conn, RInner: 1, ROuter: 2}
}

// NodeCoord implements Geometry.
func (g ShellGeometry) NodeCoord(tree int32, p [3]uint32) [3]float64 {
	x := g.Conn.TreeCoord(tree, p)
	n := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
	r := g.RInner + (g.ROuter-g.RInner)*float64(p[2])/float64(morton.RootLen)
	s := r / n
	return [3]float64{x[0] * s, x[1] * s, x[2] * s}
}

// nodeKey identifies a forest node by its canonical (tree, packed
// position) representation.
type nodeKey struct {
	tree int32
	k    uint64
}

func keyOf(np forest.NodePos) nodeKey {
	return nodeKey{np.Tree, posKey(np.Pos)}
}

// forestLeafSet is a tree-major sorted collection of forest octants
// (local + ghost) supporting containment queries.
type forestLeafSet struct {
	leaves []forest.Octant
}

func newForestLeafSet(local, ghosts []forest.Octant) *forestLeafSet {
	s := &forestLeafSet{leaves: append(append([]forest.Octant(nil), local...), ghosts...)}
	sort.Slice(s.leaves, func(i, j int) bool { return forest.Less(s.leaves[i], s.leaves[j]) })
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
func (s *forestLeafSet) findContaining(o forest.Octant) (forest.Octant, bool) {
	i := sort.Search(len(s.leaves), func(i int) bool {
		li := s.leaves[i]
		if li.Tree != o.Tree {
			return li.Tree > o.Tree
		}
		return li.O.Key() > o.O.Key()
	})
	if i == 0 {
		return forest.Octant{}, false
	}
	l := s.leaves[i-1]
	if l.Tree == o.Tree && l.O.ContainsOrEqual(o.O) {
		return l, true
	}
	return forest.Octant{}, false
}

// nodeInfo is the resolved identity of one referenced node position.
type nodeInfo struct {
	canon forest.NodePos // canonical representation (minimal rep)
	owner int32          // owning rank
	cell  forest.Octant  // incident finest cell that determines ownership
	// cellPos is the node position expressed in cell's tree frame — the
	// representation multigrid transfer uses to locate the (always
	// local on the owner) containing coarse element.
	cellPos  [3]uint32
	minTouch uint8 // minimal level among leaves touching the node
}

// resolveNode computes the canonical representation, owner and touching
// level of the node at pos in tree's frame. Ownership goes to the rank
// owning the minimal (tree-major, curve-ordered) finest-level cell
// incident to the node: deterministic from replicated data, and — under
// the full inter-tree 2:1 balance — guaranteed to be a rank that
// references the node as an element corner.
func resolveNode(f *forest.Forest, all *forestLeafSet, tree int32, pos [3]uint32, repBuf []forest.NodePos) (nodeInfo, []forest.NodePos) {
	repBuf = f.Conn.NodeReps(tree, pos, repBuf)
	info := nodeInfo{canon: repBuf[0], minTouch: morton.MaxLevel + 1}
	haveCell := false
	for _, rp := range repBuf {
		for d := 0; d < 8; d++ {
			var q [3]int64
			q[0] = int64(rp.Pos[0])
			q[1] = int64(rp.Pos[1])
			q[2] = int64(rp.Pos[2])
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
			cell := forest.Octant{Tree: rp.Tree, O: morton.Octant{
				X: uint32(q[0]), Y: uint32(q[1]), Z: uint32(q[2]), Level: morton.MaxLevel}}
			if !haveCell || forest.Less(cell, info.cell) {
				haveCell = true
				info.cell = cell
				info.cellPos = rp.Pos
			}
			if leaf, ok := all.findContaining(cell); ok && leaf.O.Level < info.minTouch {
				info.minTouch = leaf.O.Level
			}
		}
	}
	if !haveCell {
		panic(fmt.Sprintf("mesh: node %v of tree %d has no incident cell", pos, tree))
	}
	var owners [1]int
	info.owner = int32(f.Owners(info.cell, owners[:0])[0])
	return info, repBuf
}

// ExtractForest builds the distributed finite-element mesh from a
// 2:1-balanced forest of octrees (collective): the multi-tree
// generalization of Extract. Nodes shared between trees are identified by
// the transitive closure of the connectivity's face transforms, hanging
// nodes are classified across tree boundaries, and — when g is non-nil —
// every element records the physical coordinates of its eight corners
// (trilinear tree map, or radial shell projection), which the
// discretization layers turn into general per-element Jacobians.
func ExtractForest(f *forest.Forest, g Geometry) *Mesh {
	r := f.Rank()
	m := &Mesh{Rank: r, Conn: f.Conn, Geom: g}
	for _, o := range f.Leaves() {
		m.Leaves = append(m.Leaves, o.O)
		m.Trees = append(m.Trees, o.Tree)
	}

	ghosts := exchangeForestGhosts(f)
	m.NumGhostLeaves = len(ghosts)
	all := newForestLeafSet(f.Leaves(), ghosts)

	// Resolve every referenced node position once.
	infoCache := map[nodeKey]nodeInfo{}
	var repBuf []forest.NodePos
	resolve := func(tree int32, pos [3]uint32) nodeInfo {
		k := nodeKey{tree, posKey(pos)}
		if info, ok := infoCache[k]; ok {
			return info
		}
		var info nodeInfo
		info, repBuf = resolveNode(f, all, tree, pos, repBuf)
		infoCache[k] = info
		// Also cache under the canonical key: the gid-resolution phase
		// looks nodes up by their canonical representation.
		infoCache[keyOf(info.canon)] = info
		return info
	}

	// Classify every element corner and record canonical master keys.
	type cornerRef struct {
		pos    [3]uint32
		hang   bool
		n      int8
		master [4]nodeKey
		w      [4]float64
	}
	refs := make([][8]cornerRef, len(m.Leaves))
	type ownedRec struct {
		info nodeInfo
	}
	ownedSet := map[nodeKey]ownedRec{}
	need := map[nodeKey]forest.NodePos{} // canonical key -> canonical position
	me := int32(r.ID())

	noteMaster := func(info nodeInfo) nodeKey {
		ck := keyOf(info.canon)
		need[ck] = info.canon
		if info.owner == me {
			if _, ok := ownedSet[ck]; !ok {
				ownedSet[ck] = ownedRec{info: info}
			}
		}
		return ck
	}

	for ei, e := range m.Leaves {
		tree := m.Trees[ei]
		L := e.Level
		h := e.Len()
		for c := 0; c < 8; c++ {
			P := cornerPos(e, c)
			cr := cornerRef{pos: P}
			info := resolve(tree, P)
			if alignLevel(P) == L && L > 0 && info.minTouch < L {
				// Hanging: masters at P +/- h along misaligned axes, in
				// this element's own tree frame.
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
					cr.master[k] = noteMaster(resolve(tree, mp))
					cr.w[k] = w
				}
			} else {
				cr.n = 1
				cr.master[0] = noteMaster(info)
				cr.w[0] = 1
			}
			refs[ei][c] = cr
		}
	}

	// Number the owned nodes deterministically by canonical key.
	keys := make([]nodeKey, 0, len(ownedSet))
	for k := range ownedSet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tree != keys[j].tree {
			return keys[i].tree < keys[j].tree
		}
		return keys[i].k < keys[j].k
	})
	m.NumOwned = len(keys)
	m.layout = la.NewLayout(r, m.NumOwned)
	m.Offset, m.NGlobal = m.layout.Start(), m.layout.N()
	m.OwnedPos = make([][3]uint32, m.NumOwned)
	m.OwnedTree = make([]int32, m.NumOwned)
	m.OwnedCell = make([]forest.Octant, m.NumOwned)
	m.OwnedCellPos = make([][3]uint32, m.NumOwned)
	m.posToLocalT = make(map[nodeKey]int32, m.NumOwned)
	for i, k := range keys {
		rec := ownedSet[k]
		m.OwnedPos[i] = rec.info.canon.Pos
		m.OwnedTree[i] = rec.info.canon.Tree
		m.OwnedCell[i] = rec.info.cell
		m.OwnedCellPos[i] = rec.info.cellPos
		m.posToLocalT[k] = int32(i)
	}

	// Resolve global ids for every referenced canonical position.
	m.gidCacheT = make(map[nodeKey]int64, len(need))
	p := r.Size()
	askPos := make([][]forest.NodePos, p)
	for k, np := range need {
		info := infoCache[nodeKey{np.Tree, posKey(np.Pos)}]
		if info.owner == me {
			li, ok := m.posToLocalT[k]
			if !ok {
				panic(fmt.Sprintf("mesh: rank %d owns node %v but did not enumerate it", r.ID(), np))
			}
			m.gidCacheT[k] = m.Offset + int64(li)
		} else {
			askPos[info.owner] = append(askPos[info.owner], np)
		}
	}
	// Route the node queries to their owners (sparse: only actual
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
		askNB = append(askNB, 16*len(askPos[j]))
	}
	froms, asks := r.AlltoallvSparse(m.refOwners, askOut, askNB)
	m.refSend = make([][]int32, p)
	m.refAskers = froms
	resp := make([]any, len(froms))
	respNB := make([]int, len(froms))
	for i, d := range asks {
		asked := d.([]forest.NodePos)
		gids := make([]int64, len(asked))
		send := make([]int32, len(asked))
		for k, np := range asked {
			li, ok := m.posToLocalT[keyOf(np)]
			if !ok {
				panic(fmt.Sprintf("mesh: rank %d asked for node %v not owned by rank %d", froms[i], np, r.ID()))
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
			m.gidCacheT[keyOf(askPos[o][i])] = g
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
				co.GID[k] = m.gidCacheT[cr.master[k]]
				co.W[k] = cr.w[k]
			}
			m.Corners[ei][c] = co
		}
	}

	// Physical geometry: per-element corner coordinates and owned-node
	// coordinates.
	if g != nil {
		m.X = make([][8][3]float64, len(m.Leaves))
		for ei, e := range m.Leaves {
			for c := 0; c < 8; c++ {
				m.X[ei][c] = g.NodeCoord(m.Trees[ei], cornerPos(e, c))
			}
		}
		m.OwnedX = make([][3]float64, m.NumOwned)
		for i := range m.OwnedX {
			m.OwnedX[i] = g.NodeCoord(m.OwnedTree[i], m.OwnedPos[i])
		}
	}
	return m
}

// exchangeForestGhosts sends each local leaf to every remote rank
// adjacent to it — across tree boundaries included — and returns the
// ghost leaves received.
func exchangeForestGhosts(f *forest.Forest) []forest.Octant {
	r := f.Rank()
	p := r.Size()
	byRank := make([][]forest.Octant, p)
	marked := make([]int, p)
	for i := range marked {
		marked[i] = -1
	}
	var owners []int
	for li, o := range f.Leaves() {
		for _, d := range forest.Dirs26 {
			n, ok := f.Neighbor(o, d)
			if !ok {
				continue
			}
			owners = f.Owners(n, owners[:0])
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
		nb = append(nb, 20*len(byRank[j]))
	}
	_, in := r.AlltoallvSparse(dests, out, nb)
	var ghosts []forest.Octant
	for _, d := range in {
		ghosts = append(ghosts, d.([]forest.Octant)...)
	}
	return ghosts
}

// GIDForest returns the global id of the referenced node at position p in
// tree's frame; it panics if that node was never referenced by this
// rank's elements.
func (m *Mesh) GIDForest(tree int32, p [3]uint32) int64 {
	reps := m.Conn.NodeReps(tree, p, nil)
	g, ok := m.gidCacheT[keyOf(reps[0])]
	if !ok {
		panic(fmt.Sprintf("mesh: node %v of tree %d not referenced on rank %d", p, tree, m.Rank.ID()))
	}
	return g
}

// FindLocalElement returns the index of the local element that is (tree,
// o) or an ancestor of it, or -1. For single-tree meshes pass tree 0.
func (m *Mesh) FindLocalElement(tree int32, o morton.Octant) int {
	k := o.Key()
	i := sort.Search(len(m.Leaves), func(i int) bool {
		if m.Trees != nil && m.Trees[i] != tree {
			return m.Trees[i] > tree
		}
		return m.Leaves[i].Key() > k
	})
	if i == 0 {
		return -1
	}
	if m.Trees != nil && m.Trees[i-1] != tree {
		return -1
	}
	if m.Leaves[i-1].ContainsOrEqual(o) {
		return i - 1
	}
	return -1
}
