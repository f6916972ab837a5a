package mesh

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// leafSet is a tree-major sorted collection of forest octants
// (local + ghost) supporting containment queries. keys caches each
// leaf's Morton key, so a query interleaves bits once for its probe and
// never for the leaves it is compared against.
type leafSet struct {
	leaves []forest.Octant
	keys   []uint64
}

// newLeafSet places the ghosts around the local leaves, which are already
// in curve order: only the ghosts are sorted (in place), and being other
// ranks' leaves they lie wholly before or wholly after this rank's
// segment.
func newLeafSet(local, ghosts []forest.Octant) *leafSet {
	slices.SortFunc(ghosts, forest.Compare)
	ghosts = slices.Compact(ghosts)
	before := 0
	if len(local) > 0 {
		before, _ = slices.BinarySearchFunc(ghosts, local[0], forest.Compare)
	}
	s := &leafSet{leaves: make([]forest.Octant, 0, len(local)+len(ghosts))}
	s.leaves = append(append(append(s.leaves, ghosts[:before]...), local...), ghosts[before:]...)
	s.keys = make([]uint64, len(s.leaves))
	for i, o := range s.leaves {
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
	cellPos [3]uint32
	coarser bool  // a leaf coarser than the node's alignment level touches it
	need    int32 // index in Extract's master list, -1 until referenced as a master
}

// resolveNode computes the canonical representation, owner and hanging
// status of the node whose representations are reps (forest.NodeReps). Ownership
// goes to the rank owning the minimal (tree-major, curve-ordered)
// finest-level cell incident to the node: deterministic from replicated
// data, and — under the full inter-tree 2:1 balance — guaranteed to be a
// rank that references the node as an element corner.
func resolveNode(f *forest.Forest, all *leafSet, reps []forest.NodePos) nodeInfo {
	info := nodeInfo{canon: reps[0], need: -1}
	level := alignLevel(reps[0].Pos) // the same in every representation
	for i, rp := range reps {
		// The first incident cell within a tree lies one unit down every
		// axis that has room (the curve is monotone in each coordinate).
		var c [3]uint32
		for a, x := range rp.Pos {
			if x > 0 {
				x--
			}
			c[a] = x
		}
		cell := forest.Octant{Tree: rp.Tree, O: morton.Octant{X: c[0], Y: c[1], Z: c[2], Level: morton.MaxLevel}}
		if i == 0 || forest.Less(cell, info.cell) {
			info.cell, info.cellPos = cell, rp.Pos
		}
		info.coarser = info.coarser || level > 0 && touchesCoarser(all, rp, level)
	}
	var owners [1]int
	info.owner = int32(f.Owners(info.cell, owners[:0])[0])
	return info
}

// touchesCoarser reports whether a leaf coarser than level touches the
// node rp, whose alignment level is level: whether one of the level-1
// octants around it is a leaf or lies inside one. Along an axis in which
// the position is not (level-1)-aligned one such octant covers both
// sides, so there are one, two or four candidates, not eight.
func touchesCoarser(all *leafSet, rp forest.NodePos, level uint8) bool {
	h := uint32(1) << (morton.MaxLevel + 1 - uint32(level)) // edge of a level-1 octant
candidates:
	for d := 0; d < 8; d++ {
		var q [3]uint32
		for a, x := range rp.Pos {
			below := d>>a&1 != 0
			switch {
			case x&(h-1) != 0: // between lattice planes: one octant for both sides
				if below {
					continue candidates
				}
				x &^= h - 1
			case below:
				if x == 0 {
					continue candidates
				}
				x -= h
			case x == morton.RootLen:
				continue candidates
			}
			q[a] = x
		}
		o := forest.Octant{Tree: rp.Tree, O: morton.Octant{X: q[0], Y: q[1], Z: q[2], Level: level - 1}}
		if _, ok := all.findContaining(o); ok {
			return true
		}
	}
	return false
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

	// Resolve every referenced node position once. nodes lists the
	// distinct nodes in the order they were first met; the table finds a
	// node by the representation an element uses (its own tree frame) and
	// by its canonical one, so a node shared between trees is resolved
	// once whichever tree asks first.
	nodes := make([]nodeInfo, 0, 2*len(m.Leaves))
	tab := newNodeTable(2 * len(m.Leaves))
	var reps []forest.NodePos
	resolve := func(tree int32, pos [3]uint32) int32 {
		k := posKey(pos)
		if ni, ok := tab.get(tree, k); ok {
			return ni
		}
		reps = f.Conn.NodeReps(tree, pos, reps)
		ct, ck := reps[0].Tree, posKey(reps[0].Pos)
		aliased := ct != tree || ck != k
		if aliased {
			if ni, ok := tab.get(ct, ck); ok {
				tab.put(tree, k, ni)
				return ni
			}
		}
		ni := int32(len(nodes))
		nodes = append(nodes, resolveNode(f, all, reps))
		tab.put(ct, ck, ni)
		if aliased {
			tab.put(tree, k, ni)
		}
		return ni
	}

	// Classify every element corner. A master is recorded by its index in
	// need, the list of distinct master nodes in first-reference order; the
	// indices are replaced by slots once those are assigned.
	var need []int32 // indices into nodes
	noteMaster := func(ni int32) int32 {
		n := &nodes[ni]
		if n.need < 0 {
			n.need = int32(len(need))
			need = append(need, ni)
		}
		return n.need
	}

	m.Corners = make([][8]Corner, len(m.Leaves))
	for ei, e := range m.Leaves {
		tree := m.Trees[ei]
		L := e.Level
		h := e.Len()
		for c := 0; c < 8; c++ {
			P := cornerPos(e, c)
			co := &m.Corners[ei][c]
			ni := resolve(tree, P)
			if alignLevel(P) == L && nodes[ni].coarser {
				// Hanging: masters at P +/- h along misaligned axes, in
				// this element's own tree frame.
				axes := make([]int, 0, 3)
				coarse := uint32(1)<<(morton.MaxLevel-uint32(L)+1) - 1
				for a := 0; a < 3; a++ {
					if P[a]&coarse != 0 {
						axes = append(axes, a)
					}
				}
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
					co.Slot[k] = noteMaster(resolve(tree, mp))
					co.W[k] = w
				}
			} else {
				co.N = 1
				co.Slot[0] = noteMaster(ni)
				co.W[0] = 1
			}
		}
	}

	var owned, slot []int32
	m.layout, owned, slot, m.GX = numberNodes(r, nodes, need)
	m.NumOwned = len(owned)
	m.Offset, m.NGlobal = m.layout.Start(), m.layout.N()
	m.OwnedPos = make([][3]uint32, m.NumOwned)
	m.OwnedTree = make([]int32, m.NumOwned)
	m.OwnedCell = make([]forest.Octant, m.NumOwned)
	m.OwnedCellPos = make([][3]uint32, m.NumOwned)
	for li, i := range owned {
		info := &nodes[need[i]]
		m.OwnedPos[li] = info.canon.Pos
		m.OwnedTree[li] = info.canon.Tree
		m.OwnedCell[li] = info.cell
		m.OwnedCellPos[li] = info.cellPos
	}

	// Replace the need indices in the corner tables by slots.
	for ei := range m.Corners {
		for c := 0; c < 8; c++ {
			co := &m.Corners[ei][c]
			for k := 0; k < int(co.N); k++ {
				co.Slot[k] = slot[co.Slot[k]]
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

// numberNodes numbers the nodes a rank references and builds its ghost
// plan (collective). need lists them as indices into nodes, each with its
// canonical position and owner. The owned ones are numbered by canonical
// key: slot = local index = global id - Offset. The others are asked of
// their owners in the same order — the order of the owner's numbering —
// so each owner's ghosts are listed, answered and laid out in ascending
// global id. Only actual neighbor ranks exchange messages. The handshake
// leaves both sides of the ghost plan behind: the ghosts this rank was
// told the ids of, per owner, are the slots it will request, and the nodes
// it looked up for an asker are the ones it will serve, in the order asked
// — la.NewGhostExchange would negotiate the same tables. It returns the
// node layout, the owned need indices in slot order, the slot of every
// need index and the plan.
func numberNodes(r *sim.Rank, nodes []nodeInfo, need []int32) (*la.Layout, []int32, []int32, *la.GhostExchange) {
	me := int32(r.ID())
	byCanon := func(a, b *forest.NodePos) int {
		if a.Tree != b.Tree {
			return cmp.Compare(a.Tree, b.Tree)
		}
		return cmp.Compare(posKey(a.Pos), posKey(b.Pos))
	}
	byNeed := func(i, j int32) int { return byCanon(&nodes[need[i]].canon, &nodes[need[j]].canon) }
	var owned []int32                // need indices
	ask := make([][]int32, r.Size()) // need indices, per owner
	for i, ni := range need {
		if o := nodes[ni].owner; o == me {
			owned = append(owned, int32(i))
		} else {
			ask[o] = append(ask[o], int32(i))
		}
	}
	slices.SortFunc(owned, byNeed)
	layout := la.NewLayout(r, len(owned))
	slot := make([]int32, len(need)) // slot of need[i]
	for li, i := range owned {
		slot[i] = int32(li)
	}

	var owners []int
	var reqSlot [][]int32
	var askOut []any
	var askNB []int
	nGhost := 0
	for o, idx := range ask {
		if len(idx) == 0 {
			continue
		}
		slices.SortFunc(idx, byNeed)
		pos := make([]forest.NodePos, len(idx))
		slots := make([]int32, len(idx))
		for k, i := range idx {
			pos[k] = nodes[need[i]].canon
			slots[k] = int32(nGhost + k)
			slot[i] = int32(len(owned) + nGhost + k)
		}
		nGhost += len(idx)
		owners = append(owners, o)
		reqSlot = append(reqSlot, slots)
		askOut = append(askOut, pos)
		askNB = append(askNB, 16*len(pos))
	}
	servers, asks := r.AlltoallvSparse(owners, askOut, askNB)
	sendIdx := make([][]int32, len(servers))
	resp := make([]sim.Payload, len(servers))
	for i, d := range asks {
		asked := d.([]forest.NodePos)
		gids := make([]int64, len(asked))
		send := make([]int32, len(asked))
		for k, np := range asked {
			li, ok := slices.BinarySearchFunc(owned, &np, func(i int32, np *forest.NodePos) int {
				return byCanon(&nodes[need[i]].canon, np)
			})
			if !ok {
				panic(fmt.Sprintf("mesh: rank %d asked for node %v not owned by rank %d", servers[i], np, r.ID()))
			}
			gids[k] = layout.Start() + int64(li)
			send[k] = int32(li)
		}
		resp[i] = sim.Payload{Data: gids, NBytes: 8 * len(gids)}
		sendIdx[i] = send
	}
	back := make([]sim.Payload, len(owners))
	r.NeighborExchange(servers, resp, owners, back)
	ghostIDs := make([]int64, 0, nGhost)
	for k := range owners {
		ghostIDs = append(ghostIDs, back[k].Data.([]int64)...)
	}
	gx := la.NewGhostExchangeAgreed(layout, ghostIDs, owners, reqSlot, servers, sendIdx, 1)
	return layout, owned, slot, gx
}

// interior reports whether octant o and its 26 same-level neighbours all
// lie inside this rank's curve segment: then so does every neighbour of
// every descendant of o, and no other rank needs any of them as a ghost.
func interior(f *forest.Forest, o forest.Octant) bool {
	if !f.Contains(o) {
		return false
	}
	for _, d := range forest.Dirs26 {
		if n, ok := f.Neighbor(o, d); ok && !f.Contains(n) {
			return false
		}
	}
	return true
}

// exchangeGhosts sends each local leaf to every remote rank adjacent to
// it — across tree boundaries included — and returns the ghost leaves
// received. Only leaves next to the partition boundary have anything to
// send: a family whose parent is interior is skipped after one test.
func exchangeGhosts(f *forest.Forest) []forest.Octant {
	r := f.Rank()
	p := r.Size()
	byRank := make([][]forest.Octant, p)
	marked := make([]int, p)
	for i := range marked {
		marked[i] = -1
	}
	var owners []int
	var parent forest.Octant
	skip := false // parent is interior
	for li, o := range f.Leaves() {
		if o.O.Level > 0 {
			if pa := (forest.Octant{Tree: o.Tree, O: o.O.Parent()}); li == 0 || pa != parent {
				parent, skip = pa, interior(f, pa)
			}
			if skip {
				continue
			}
		}
		for _, d := range forest.Dirs26 {
			n, ok := f.Neighbor(o, d)
			if !ok || f.Contains(n) {
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
	return f.ExchangeOctants(byRank)
}
