package mesh

import (
	"fmt"
	"sort"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/morton"
)

// nodeKey identifies a forest node by its canonical (tree, packed
// position) representation.
type nodeKey struct {
	tree int32
	k    uint64
}

func keyOf(np forest.NodePos) nodeKey {
	return nodeKey{np.Tree, posKey(np.Pos)}
}

// less orders keys tree-major, then by packed position.
func (a nodeKey) less(b nodeKey) bool {
	if a.tree != b.tree {
		return a.tree < b.tree
	}
	return a.k < b.k
}

// leafSet is a tree-major sorted collection of forest octants
// (local + ghost) supporting containment queries. keys caches each
// leaf's Morton key, so a query interleaves bits once for its probe and
// never for the leaves it is compared against.
type leafSet struct {
	leaves []forest.Octant
	keys   []uint64
}

func newLeafSet(local, ghosts []forest.Octant) *leafSet {
	s := &leafSet{leaves: append(append([]forest.Octant(nil), local...), ghosts...)}
	sort.Slice(s.leaves, func(i, j int) bool { return forest.Less(s.leaves[i], s.leaves[j]) })
	out := s.leaves[:0]
	for i, o := range s.leaves {
		if i == 0 || o != s.leaves[i-1] {
			out = append(out, o)
		}
	}
	s.leaves = out
	s.keys = make([]uint64, len(out))
	for i, o := range out {
		s.keys[i] = o.O.Key()
	}
	return s
}

// findContaining returns the leaf that is o or an ancestor of o.
func (s *leafSet) findContaining(o forest.Octant) (forest.Octant, bool) {
	k := o.O.Key()
	i := sort.Search(len(s.leaves), func(i int) bool {
		if t := s.leaves[i].Tree; t != o.Tree {
			return t > o.Tree
		}
		return s.keys[i] > k
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
func resolveNode(f *forest.Forest, all *leafSet, tree int32, pos [3]uint32, repBuf []forest.NodePos) (nodeInfo, []forest.NodePos) {
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

// Extract builds the distributed finite-element mesh from a 2:1-balanced
// forest of octrees (collective). Nodes shared between trees are
// identified by the transitive closure of the connectivity's face
// transforms, hanging nodes are classified across tree boundaries, and —
// when g is non-nil — every element records the physical coordinates of
// its eight corners (trilinear tree map, or radial shell projection),
// which the discretization layers turn into general per-element
// Jacobians. With g nil (the unit box) X stays nil and they keep their
// axis-aligned constant-h kernels. Inconsistent (unbalanced) input causes
// an explicit panic during id resolution.
func Extract(f *forest.Forest, g Geometry) *Mesh {
	r := f.Rank()
	m := &Mesh{Rank: r, Conn: f.Conn, Geom: g}
	m.Leaves = make([]morton.Octant, len(f.Leaves()))
	m.Trees = make([]int32, len(f.Leaves()))
	for i, o := range f.Leaves() {
		m.Leaves[i], m.Trees[i] = o.O, o.Tree
	}

	ghosts := exchangeGhosts(f)
	m.NumGhostLeaves = len(ghosts)
	all := newLeafSet(f.Leaves(), ghosts)

	// Resolve every referenced node position once.
	infoCache := make(map[nodeKey]nodeInfo, 2*len(m.Leaves))
	var repBuf []forest.NodePos
	resolve := func(tree int32, pos [3]uint32) nodeInfo {
		k := nodeKey{tree, posKey(pos)}
		if info, ok := infoCache[k]; ok {
			return info
		}
		var info nodeInfo
		info, repBuf = resolveNode(f, all, tree, pos, repBuf)
		infoCache[k] = info
		// Also cache under the canonical key, so the canonical tree's own
		// elements find the node resolved.
		if ck := keyOf(info.canon); ck != k {
			infoCache[ck] = info
		}
		return info
	}

	// Classify every element corner. A master is recorded by its index in
	// need, the list of distinct referenced nodes; the indices are replaced
	// by global ids once those are resolved.
	var need []nodeInfo
	needIdx := make(map[nodeKey]int64, 2*len(m.Leaves)) // canonical key -> index in need
	noteMaster := func(info nodeInfo) int64 {
		ck := keyOf(info.canon)
		i, ok := needIdx[ck]
		if !ok {
			i = int64(len(need))
			needIdx[ck] = i
			need = append(need, info)
		}
		return i
	}

	m.Corners = make([][8]Corner, len(m.Leaves))
	for ei, e := range m.Leaves {
		tree := m.Trees[ei]
		L := e.Level
		h := e.Len()
		for c := 0; c < 8; c++ {
			P := cornerPos(e, c)
			co := &m.Corners[ei][c]
			co.Pos = P
			info := resolve(tree, P)
			if alignLevel(P) == L && L > 0 && info.minTouch < L {
				// Hanging: masters at P +/- h along misaligned axes, in
				// this element's own tree frame.
				axes := make([]int, 0, 3)
				coarse := uint32(1)<<(morton.MaxLevel-uint32(L)+1) - 1
				for a := 0; a < 3; a++ {
					if P[a]&coarse != 0 {
						axes = append(axes, a)
					}
				}
				co.Hanging = true
				co.N = int8(1 << len(axes))
				w := 1.0 / float64(int(co.N))
				for k := 0; k < int(co.N); k++ {
					mp := P
					for bi, a := range axes {
						if k>>bi&1 == 0 {
							mp[a] -= h
						} else {
							mp[a] += h
						}
					}
					co.GID[k] = noteMaster(resolve(tree, mp))
					co.W[k] = w
				}
			} else {
				co.N = 1
				co.GID[0] = noteMaster(info)
				co.W[0] = 1
			}
		}
	}

	// Number the owned nodes deterministically by canonical key; the
	// others are asked of their owners.
	me := int32(r.ID())
	p := r.Size()
	var owned []int64 // need indices
	askPos := make([][]forest.NodePos, p)
	askIdx := make([][]int64, p) // need indices, aligned with askPos
	for i, n := range need {
		if n.owner == me {
			owned = append(owned, int64(i))
		} else {
			askPos[n.owner] = append(askPos[n.owner], n.canon)
			askIdx[n.owner] = append(askIdx[n.owner], int64(i))
		}
	}
	sort.Slice(owned, func(i, j int) bool {
		return keyOf(need[owned[i]].canon).less(keyOf(need[owned[j]].canon))
	})
	m.NumOwned = len(owned)
	m.layout = la.NewLayout(r, m.NumOwned)
	m.Offset, m.NGlobal = m.layout.Start(), m.layout.N()
	m.OwnedPos = make([][3]uint32, m.NumOwned)
	m.OwnedTree = make([]int32, m.NumOwned)
	m.OwnedCell = make([]forest.Octant, m.NumOwned)
	m.OwnedCellPos = make([][3]uint32, m.NumOwned)
	m.posToLocal = make(map[nodeKey]int32, m.NumOwned)
	gid := make([]int64, len(need)) // global id of need[i]
	for li, i := range owned {
		info := &need[i]
		m.OwnedPos[li] = info.canon.Pos
		m.OwnedTree[li] = info.canon.Tree
		m.OwnedCell[li] = info.cell
		m.OwnedCellPos[li] = info.cellPos
		m.posToLocal[keyOf(info.canon)] = int32(li)
		gid[i] = m.Offset + int64(li)
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
			li, ok := m.posToLocal[keyOf(np)]
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
			gid[askIdx[o][i]] = g
		}
		m.refWant[o] = gids
	}

	// Replace the need indices in the corner tables by global ids.
	for ei := range m.Corners {
		for c := 0; c < 8; c++ {
			co := &m.Corners[ei][c]
			for k := 0; k < int(co.N); k++ {
				co.GID[k] = gid[co.GID[k]]
			}
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

// exchangeGhosts sends each local leaf to every remote rank adjacent to
// it — across tree boundaries included — and returns the ghost leaves
// received.
func exchangeGhosts(f *forest.Forest) []forest.Octant {
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
