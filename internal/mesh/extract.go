package mesh

import (
	"cmp"
	"fmt"
	"slices"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// nodeInfo is the resolved identity of one referenced node position.
type nodeInfo struct {
	canon forest.NodePos // canonical representation (minimal rep)
	owner int32          // owning rank
	cell  forest.Octant  // incident finest cell that determines ownership
	// cellPos is the node position expressed in cell's tree frame — the
	// representation multigrid transfer uses to locate the (always
	// local on the owner) containing coarse element.
	cellPos [3]uint32
}

// resolveNode computes the canonical representation and owner of the
// node whose representations are reps (forest.NodeReps), and the number
// of leaves that have it as a corner when no coarser leaf touches it:
// 2^(axes strictly inside the tree), summed over the representations.
// Ownership goes to the rank owning the minimal
// (tree-major, curve-ordered) finest-level cell incident to the node:
// deterministic from replicated data, and — under the full inter-tree
// 2:1 balance — guaranteed to be a rank that references the node as an
// element corner.
func resolveNode(f *forest.Forest, reps []forest.NodePos) (info nodeInfo, sides int8) {
	info.canon = reps[0]
	for i, rp := range reps {
		// The first incident cell within a tree lies one unit down every
		// axis that has room (the curve is monotone in each coordinate).
		var c [3]uint32
		n := int8(1)
		for a, x := range rp.Pos {
			if x > 0 && x < morton.RootLen {
				n <<= 1
			}
			if x > 0 {
				x--
			}
			c[a] = x
		}
		sides += n
		cell := forest.Octant{Tree: rp.Tree, O: morton.Octant{X: c[0], Y: c[1], Z: c[2], Level: morton.MaxLevel}}
		if i == 0 || forest.Less(cell, info.cell) {
			info.cell, info.cellPos = cell, rp.Pos
		}
	}
	var owners [1]int
	info.owner = int32(f.Owners(info.cell, owners[:0])[0])
	return info, sides
}

// The parent's 3x3x3 lattice of child-edge points, point x + 3y + 9z:
// latticeOf[c][d] is corner d of child c, so latticeOf[k][k] is parent
// corner k, and between[l] holds the axes along which point l lies
// between two parent corners.
var latticeOf, between = func() (t [8][8]uint8, b [27]uint8) {
	for c := range t {
		for d := range t[c] {
			t[c][d] = uint8(c&1 + d&1 + 3*(c>>1&1+d>>1&1) + 9*(c>>2&1+d>>2&1))
		}
	}
	for l := range b {
		for a, v := range [3]int{l % 3, l / 3 % 3, l / 9} {
			b[l] |= uint8(v&1) << a
		}
	}
	return t, b
}()

// latticePos returns the position of lattice point l of the parent of e.
func latticePos(e morton.Octant, l int) [3]uint32 {
	pa, h := e.Parent(), e.Len()
	return [3]uint32{pa.X + uint32(l%3)*h, pa.Y + uint32(l/3%3)*h, pa.Z + uint32(l/9)*h}
}

// extraction is Extract's per-call node state: the distinct nodes in the
// order they were first met and the table that finds them by the
// representation an element uses (its own tree frame) and by the
// canonical one, so a node shared between trees is resolved once
// whichever tree asks first. Beside each node, short holds the
// references it lacks to be a corner of every leaf that touches it, and
// needOf its index in need, the nodes corners reference as masters.
type extraction struct {
	f      *forest.Forest
	tab    *nodeTable
	reps   []forest.NodePos
	nodes  []nodeInfo
	short  []int8
	needOf []int32
	need   []int32
}

// newNode lists the node whose representations are reps.
func (x *extraction) newNode(reps []forest.NodePos) int32 {
	info, sides := resolveNode(x.f, reps)
	x.nodes, x.short, x.needOf = append(x.nodes, info), append(x.short, sides), append(x.needOf, -1)
	return int32(len(x.nodes) - 1)
}

// resolve returns the node at pos in tree's frame, creating it if no
// leaf met it yet; without create such a position gives -1.
func (x *extraction) resolve(tree int32, pos [3]uint32, create bool) int32 {
	k := posKey(pos)
	if ni, ok := x.tab.get(tree, k); ok {
		return ni
	}
	x.reps = x.f.Conn.NodeReps(tree, pos, x.reps)
	ct, ck := x.reps[0].Tree, posKey(x.reps[0].Pos)
	aliased := ct != tree || ck != k
	if aliased {
		if ni, ok := x.tab.get(ct, ck); ok {
			x.tab.put(tree, k, ni)
			return ni
		}
	}
	if !create {
		return -1
	}
	ni := x.newNode(x.reps)
	x.tab.put(ct, ck, ni)
	if aliased {
		x.tab.put(tree, k, ni)
	}
	return ni
}

// master returns node ni's index in need, listing it on first use.
func (x *extraction) master(ni int32) int32 {
	if x.needOf[ni] < 0 {
		x.needOf[ni] = int32(len(x.need))
		x.need = append(x.need, ni)
	}
	return x.needOf[ni]
}

// classify turns the node indices in the rows of leaves i..i+n-1 — one
// leaf, or a complete family (n = 8) — into need indices and hanging
// entries, once per point of their parent's lattice. A corner of a
// level-L leaf can only hang at a point between parent corners (its
// alignment level is L), and it does iff its node is short of
// references.
func (x *extraction) classify(m *Mesh, i, n int) {
	e, tree := m.Leaves[i], m.Trees[i]
	first := 0 // child id of leaf i
	if n == 1 {
		first = e.ChildID()
	}
	var lat, out [27]int32 // node index (-1: not a corner of the leaves), need index (-1: hanging)
	var hangs [27]Hang
	for l := range lat {
		lat[l] = -1
	}
	for c, row := range m.Rows[i : i+n] {
		for d, ni := range row {
			lat[latticeOf[first+c][d]] = ni
		}
	}
	for l, ni := range lat {
		if ni < 0 {
			continue
		}
		if between[l] == 0 || e.Level == 0 || x.short[ni] == 0 {
			out[l] = x.master(ni)
		} else {
			out[l] = -1
			x.constrain(&hangs[l], &lat, l, tree, e)
		}
	}
	for c := range m.Rows[i : i+n] {
		row := &m.Rows[i+c]
		for d := range row {
			if l := latticeOf[first+c][d]; out[l] >= 0 {
				row[d] = out[l]
			} else {
				row[d] = ^int32(len(m.Hang))
				m.Hang = append(m.Hang, hangs[l])
			}
		}
	}
}

// constrain sets hc to the constraint, in need indices, of the hanging
// lattice point l of e's parent: its masters are the parent corners at
// -h and +h along each axis on which it lies between two. One that lat
// holds is a corner of a local leaf, so every leaf touching it was
// counted, and under 2:1 balance none is coarser.
func (x *extraction) constrain(hc *Hang, lat *[27]int32, l int, tree int32, e morton.Octant) {
	var axes [3]int
	na := 0
	for a := 0; a < 3; a++ {
		if between[l]>>a&1 != 0 {
			axes[na] = a
			na++
		}
	}
	hc.N = 1 << na
	for k := 0; k < int(hc.N); k++ {
		pc := l%3>>1 | l/3%3>>1<<1 | l/9>>1<<2
		for bi, a := range axes[:na] {
			pc |= k >> bi & 1 << a
		}
		pl := int(latticeOf[pc][pc])
		mn := lat[pl]
		if mn < 0 {
			mn = x.resolve(tree, latticePos(e, pl), true)
		} else if x.short[mn] != 0 {
			panic(fmt.Sprintf("mesh: forest is not 2:1 balanced: hanging-node master %v of element %v in tree %d lies inside a coarser leaf's face or edge",
				x.nodes[mn].canon, e, tree))
		}
		hc.Slot[k] = x.master(mn)
	}
}

// Extract builds the distributed finite-element mesh from a 2:1-balanced
// forest of octrees (collective). Nodes shared between trees are
// identified by the transitive closure of the connectivity's face
// transforms, hanging nodes are classified across tree boundaries, and —
// when g is non-nil — every element records the physical coordinates of
// its eight corners (trilinear tree map, or radial shell projection),
// which the discretization layers turn into general per-element
// Jacobians. With g nil (the unit box) X stays nil and they keep their
// axis-aligned constant-h kernels. An unbalanced forest panics when a
// hanging corner's master lies inside a coarser leaf's face or edge.
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
	for i := 1; i < len(ghosts); i++ {
		if !forest.Less(ghosts[i-1], ghosts[i]) {
			panic(fmt.Sprintf("mesh: rank %d received ghost %v twice or out of curve order", r.ID(), ghosts[i]))
		}
	}

	// Resolve the corners of every local element into Rows, as node
	// indices for now. A complete family resolves its parent's lattice:
	// 26 lookups for 64 corners, none for the centre, which no other leaf
	// touches.
	n := 2 * len(m.Leaves)
	x := &extraction{f: f, tab: newNodeTable(n), nodes: make([]nodeInfo, 0, n),
		short: make([]int8, 0, n), needOf: make([]int32, 0, n)}
	m.Rows = make([][8]int32, len(m.Leaves))
	for i := 0; i < len(m.Leaves); {
		e, tree := m.Leaves[i], m.Trees[i]
		if _, ok := f.Family(i); !ok {
			for c := range m.Rows[i] {
				m.Rows[i][c] = x.resolve(tree, cornerPos(e, c), true)
			}
			i++
			continue
		}
		var lat [27]int32
		for l := range lat {
			if l == 13 {
				lat[l] = x.newNode(append(x.reps[:0], forest.NodePos{Tree: tree, Pos: latticePos(e, l)}))
			} else {
				lat[l] = x.resolve(tree, latticePos(e, l), true)
			}
		}
		for c := 0; c < 8; c++ {
			for d := range m.Rows[i+c] {
				m.Rows[i+c][d] = lat[latticeOf[c][d]]
			}
		}
		i += 8
	}

	// Count the leaves referencing each node. Every leaf that touches a
	// corner P of a local element is local or a ghost, and one that
	// touches P without having it as a corner is coarser than P's
	// alignment level and covers more than one of the sides counted in
	// resolveNode.
	for _, row := range m.Rows {
		for _, ni := range row {
			x.short[ni]--
		}
	}
	for _, o := range ghosts {
		for c := 0; c < 8; c++ {
			if ni := x.resolve(o.Tree, cornerPos(o.O, c), false); ni >= 0 {
				x.short[ni]--
			}
		}
	}

	// Classify every element corner. A row entry becomes the master's
	// index in need, or ^h for a hanging corner whose masters' need
	// indices are Hang[h]; the indices are replaced by slots once those
	// are assigned.
	for i := 0; i < len(m.Leaves); {
		n := 1
		if _, ok := f.Family(i); ok {
			n = 8
		}
		x.classify(m, i, n)
		i += n
	}
	m.Hang = append([]Hang(nil), m.Hang...) // exact length: the table stays resident
	nodes, need := x.nodes, x.need

	var owned []canonKey
	var slot []int32
	m.layout, owned, slot, m.GX = numberNodes(r, nodes, need)
	m.NumOwned = len(owned)
	m.Offset, m.NGlobal = m.layout.Start(), m.layout.N()
	m.OwnedPos = make([][3]uint32, m.NumOwned)
	m.OwnedTree = make([]int32, m.NumOwned)
	m.OwnedCell = make([]forest.Octant, m.NumOwned)
	m.OwnedCellPos = make([][3]uint32, m.NumOwned)
	for li, k := range owned {
		info := &nodes[need[k.need]]
		m.OwnedPos[li] = info.canon.Pos
		m.OwnedTree[li] = info.canon.Tree
		m.OwnedCell[li] = info.cell
		m.OwnedCellPos[li] = info.cellPos
	}

	// Replace the need indices in the corner rows and hanging table by
	// slots.
	for ei := range m.Rows {
		row := &m.Rows[ei]
		for c, s := range row {
			if s >= 0 {
				row[c] = slot[s]
			}
		}
	}
	for i := range m.Hang {
		hc := &m.Hang[i]
		for k := 0; k < int(hc.N); k++ {
			hc.Slot[k] = slot[hc.Slot[k]]
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

// canonKey is a node's canonical representation packed for sorting,
// (tree, position key), with the need index it stands for.
type canonKey struct {
	tree int32
	need int32
	pos  uint64
}

// cmpCanon orders canonKeys tree-major, then by position key. Distinct
// nodes have distinct canonical representations, so it has no ties.
func cmpCanon(a, b canonKey) int {
	if a.tree != b.tree {
		return cmp.Compare(a.tree, b.tree)
	}
	return cmp.Compare(a.pos, b.pos)
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
// node layout, the owned nodes' keys in slot order, the slot of every
// need index and the plan.
func numberNodes(r *sim.Rank, nodes []nodeInfo, need []int32) (*la.Layout, []canonKey, []int32, *la.GhostExchange) {
	me := int32(r.ID())
	var owned []canonKey                // in slot order once sorted
	ask := make([][]canonKey, r.Size()) // per owner
	for i, ni := range need {
		n := &nodes[ni]
		k := canonKey{tree: n.canon.Tree, need: int32(i), pos: posKey(n.canon.Pos)}
		if n.owner == me {
			owned = append(owned, k)
		} else {
			ask[n.owner] = append(ask[n.owner], k)
		}
	}
	slices.SortFunc(owned, cmpCanon)
	layout := la.NewLayout(r, len(owned))
	slot := make([]int32, len(need)) // slot of need[i]
	for li, k := range owned {
		slot[k.need] = int32(li)
	}

	var owners []int
	var reqSlot [][]int32
	var askOut []any
	var askNB []int
	nGhost := 0
	for o, keys := range ask {
		if len(keys) == 0 {
			continue
		}
		slices.SortFunc(keys, cmpCanon)
		pos := make([]forest.NodePos, len(keys))
		slots := make([]int32, len(keys))
		for j, k := range keys {
			pos[j] = nodes[need[k.need]].canon
			slots[j] = int32(nGhost + j)
			slot[k.need] = int32(len(owned) + nGhost + j)
		}
		nGhost += len(keys)
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
		for j, np := range asked {
			li, ok := slices.BinarySearchFunc(owned, canonKey{tree: np.Tree, pos: posKey(np.Pos)}, cmpCanon)
			if !ok {
				panic(fmt.Sprintf("mesh: rank %d asked for node %v not owned by rank %d", servers[i], np, r.ID()))
			}
			gids[j] = layout.Start() + int64(li)
			send[j] = int32(li)
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

// interior reports whether octant o and its 26 same-size neighbours all
// lie in this rank's curve segment: then so does every neighbour of
// every descendant of o, and no other rank needs any of them as a ghost.
// buf is scratch for forest.GhostRanks.
func interior(f *forest.Forest, o forest.Octant, buf []int) bool {
	return f.Contains(o) && len(f.GhostRanks(o, buf[:0])) == 0
}

// exchangeGhosts sends each local leaf to every remote rank adjacent to
// it — across tree boundaries included — and returns the ghost leaves
// received, in curve order (sources arrive in rank order, each in its own
// curve order). Only leaves next to the partition boundary have anything
// to send: a family whose parent is interior is skipped after one test.
func exchangeGhosts(f *forest.Forest) []forest.Octant {
	byRank := make([][]forest.Octant, f.Rank().Size())
	var ranks []int
	var parent forest.Octant
	skip := false // parent is interior
	for li, o := range f.Leaves() {
		if o.O.Level > 0 {
			if pa := (forest.Octant{Tree: o.Tree, O: o.O.Parent()}); li == 0 || pa != parent {
				parent, skip = pa, interior(f, pa, ranks)
			}
			if skip {
				continue
			}
		}
		ranks = f.GhostRanks(o, ranks[:0])
		for _, rk := range ranks {
			byRank[rk] = append(byRank[rk], o)
		}
	}
	return f.ExchangeOctants(byRank)
}
