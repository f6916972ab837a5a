package mesh

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// node is one distinct node position an extraction meets.
type node struct {
	canon forest.NodePos // canonical representation (NodeReps' first)
	owner int32          // owning rank
	// cell indexes extraction.cells: the representation whose first
	// incident finest cell decided ownership, or -1 when canon's did.
	// Only owned nodes read it (Mesh.OwnedCell, Mesh.OwnedCellPos).
	cell int32
	// at is the flat index 8e+c of the first element corner whose tree
	// and position are canon's, -1 until one is met: the corner whose
	// coordinate every other canonical corner of the node copies.
	at int32
	// short counts the references the node lacks to be a corner of
	// every leaf that touches it (newNode), and master marks an
	// independent node a row or a hanging constraint references.
	short  int8
	master bool
}

// firstCell returns the first finest-level cell incident to the node at
// rp within rp's tree — one unit down every axis that has room (the
// curve is monotone in each coordinate) — and the number of leaves that
// have the node as a corner within that tree when none is coarser:
// 2^(axes strictly inside the tree).
func firstCell(rp forest.NodePos) (forest.Octant, int8) {
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
	return forest.Octant{Tree: rp.Tree, O: morton.Octant{X: c[0], Y: c[1], Z: c[2], Level: morton.MaxLevel}}, n
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

// latticeFirst[l] is the first (child, corner) of the parent's children
// at lattice point l.
var latticeFirst = func() (t [27][2]uint8) {
	for c := 7; c >= 0; c-- {
		for d := 7; d >= 0; d-- {
			t[latticeOf[c][d]] = [2]uint8{uint8(c), uint8(d)}
		}
	}
	return t
}()

// latticePos returns the position of lattice point l of the parent of e.
func latticePos(e morton.Octant, l int) [3]uint32 {
	pa, h := e.Parent(), e.Len()
	return [3]uint32{pa.X + uint32(l%3)*h, pa.Y + uint32(l/3%3)*h, pa.Z + uint32(l/9)*h}
}

// extraction is Extract's per-call node state: the distinct nodes in the
// order they were first met, the table that finds them by any of their
// representations, so a node shared between trees is resolved once
// whichever tree asks first, and the representations that decided the
// ownership of nodes whose canonical one did not (node.cell).
type extraction struct {
	f       *forest.Forest
	me      int32
	tab     *nodeTable
	reps    []forest.NodePos
	nodes   []node
	cells   []forest.NodePos
	masters int // nodes marked master
}

// newNode lists the node whose representations are reps. Ownership goes
// to the rank owning the minimal (tree-major, curve-ordered) finest-level
// cell incident to the node: deterministic from replicated data, and —
// under the full inter-tree 2:1 balance — guaranteed to be a rank that
// references the node as an element corner. Its short starts at the
// number of leaves that have it as a corner when no coarser leaf touches
// it, summed over the representations.
func (x *extraction) newNode(reps []forest.NodePos) int32 {
	nd := node{canon: reps[0], cell: -1, at: -1}
	var best forest.Octant
	win := 0
	for i, rp := range reps {
		c, n := firstCell(rp)
		nd.short += n
		if i == 0 || forest.Less(c, best) {
			best, win = c, i
		}
	}
	if win > 0 {
		nd.cell = int32(len(x.cells))
		x.cells = append(x.cells, reps[win])
	}
	if x.f.Contains(best) {
		nd.owner = x.me
	} else {
		var owners [1]int
		nd.owner = int32(x.f.Owners(best, owners[:0])[0])
	}
	x.nodes = append(x.nodes, nd)
	return int32(len(x.nodes) - 1)
}

// resolve returns the node at pos in tree's frame, creating it if no
// leaf met it yet; without create such a position gives -1. A node is
// entered in the table under all its representations at once, so a
// position absent from it is a node not met yet, in any tree's frame.
func (x *extraction) resolve(tree int32, pos [3]uint32, create bool) int32 {
	k := posKey(pos)
	i, ok := x.tab.find(tree, k)
	if ok {
		return x.tab.slots[i].idx - 1
	}
	if !create {
		return -1
	}
	if inside(pos) { // the only representation
		ni := x.newNode(append(x.reps[:0], forest.NodePos{Tree: tree, Pos: pos}))
		x.tab.putAt(i, tree, k, ni)
		return ni
	}
	x.reps = x.f.Conn.NodeReps(tree, pos, x.reps)
	ni := x.newNode(x.reps)
	for _, rp := range x.reps {
		x.tab.put(rp.Tree, posKey(rp.Pos), ni)
	}
	return ni
}

// inside reports whether pos lies strictly inside its tree, off every
// tree face: then it is the node's one representation.
func inside(pos [3]uint32) bool {
	return pos[0]-1 < morton.RootLen-1 && pos[1]-1 < morton.RootLen-1 && pos[2]-1 < morton.RootLen-1
}

// master marks node ni as an independent node the mesh references and
// returns it.
func (x *extraction) master(ni int32) int32 {
	if nd := &x.nodes[ni]; !nd.master {
		nd.master = true
		x.masters++
	}
	return ni
}

// classify finds the hanging corners among the rows of leaves
// i..i+n-1 — one leaf, or a complete family (n = 8) — once per point of
// their parent's lattice, replaces each by ^h with its constraint in
// Hang[h], and marks the other corners' nodes as masters. A corner of a
// level-L leaf can only hang at a point between parent corners (its
// alignment level is L), and it does iff its node is short of
// references.
func (x *extraction) classify(m *Mesh, i, n int) {
	e, tree := m.Leaves[i], m.Trees[i]
	first := 0 // child id of leaf i
	if n == 1 {
		first = e.ChildID()
	}
	var lat [27]int32  // node index (-1: not a corner of the leaves)
	var hangs [27]Hang // the constraint of a hanging point; N = 0 elsewhere
	for l := range lat {
		lat[l] = -1
	}
	for c, row := range m.Rows[i : i+n] {
		for d, ni := range row {
			lat[latticeOf[first+c][d]] = ni
		}
	}
	hanging := false
	for l, ni := range lat {
		if ni < 0 {
			continue
		}
		if between[l] == 0 || e.Level == 0 || x.nodes[ni].short == 0 {
			x.master(ni)
		} else {
			x.constrain(&hangs[l], &lat, l, tree, e)
			hanging = true
		}
	}
	if !hanging {
		return
	}
	for c := range m.Rows[i : i+n] {
		row := &m.Rows[i+c]
		for d := range row {
			if hc := &hangs[latticeOf[first+c][d]]; hc.N > 0 {
				row[d] = ^int32(len(m.Hang))
				m.Hang = append(m.Hang, *hc)
			}
		}
	}
}

// constrain sets hc to the constraint, in node indices, of the hanging
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
		} else if x.nodes[mn].short != 0 {
			panic(fmt.Sprintf("mesh: forest is not 2:1 balanced: hanging-node master %v of element %v in tree %d lies inside a coarser leaf's face or edge",
				x.nodes[mn].canon, e, tree))
		}
		hc.Slot[k] = x.master(mn)
	}
}

// coords returns the physical coordinates of every element corner,
// calling g once per distinct (tree, position) representation: a corner
// in its node's canonical representation copies the first such corner
// (node.at), any other the first corner with its tree and position,
// found through a table of its own. A complete family fills its 64
// corners from its parent's 27 lattice points. The rows must hold node
// indices.
func (x *extraction) coords(m *Mesh, g Geometry) [][8][3]float64 {
	X := make([][8][3]float64, len(m.Leaves))
	var alias *nodeTable // flat corner index by non-canonical representation
	coord := func(ei, c int) [3]float64 {
		tree, p, at, from := m.Trees[ei], cornerPos(m.Leaves[ei], c), int32(8*ei+c), int32(-1)
		if nd := &x.nodes[m.Rows[ei][c]]; nd.canon.Tree == tree && nd.canon.Pos == p {
			if nd.at < 0 {
				nd.at = at
			} else {
				from = nd.at
			}
		} else {
			if alias == nil { // room for every non-canonical entry of the node table
				alias = newNodeTable(max(0, x.tab.n-len(x.nodes)+len(m.Leaves)/8))
			}
			if a, ok := alias.get(tree, posKey(p)); ok {
				from = a
			} else {
				alias.put(tree, posKey(p), at)
			}
		}
		if from < 0 {
			return g.NodeCoord(tree, p)
		}
		return X[from>>3][from&7]
	}
	for i := 0; i < len(m.Leaves); {
		if _, ok := x.f.Family(i); !ok {
			for c := range X[i] {
				X[i][c] = coord(i, c)
			}
			i++
			continue
		}
		var lat [27][3]float64
		for l, cd := range latticeFirst {
			lat[l] = coord(i+int(cd[0]), int(cd[1]))
		}
		for c := 0; c < 8; c++ {
			for d := range X[i+c] {
				X[i+c][d] = lat[latticeOf[c][d]]
			}
		}
		i += 8
	}
	return X
}

// Extract builds the distributed finite-element mesh from a 2:1-balanced
// forest of octrees (collective). Nodes shared between trees are
// identified by the transitive closure of the connectivity's face
// transforms, hanging nodes are classified across tree boundaries, and —
// when g is non-nil — every element records the physical coordinates of
// its eight corners (trilinear tree map, or radial shell projection),
// computed once per distinct (tree, position) representation, which the
// discretization layers turn into general per-element Jacobians. With g
// nil (the unit box) X stays nil and every brick of one octree level
// shares one element geometry. An unbalanced forest panics when a
// hanging corner's master lies inside a coarser leaf's face or edge.
//
// Beside the mesh it returns, one extraction allocates per leaf about
// one node record, the table slots that find it and the sort keys of
// the numbering; none of it outlives the call.
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
	// indices. A complete family resolves its parent's lattice: 19
	// lookups for 64 corners, none for the 8 points it is the first to
	// meet, the centre among them. On the benchmarks' uniform and adapted
	// meshes at 1 to 8 ranks, nodes run to 1.1-1.6 per leaf and table
	// entries, one per representation, to 1.25-1.75.
	n := len(m.Leaves)
	x := &extraction{f: f, me: int32(r.ID()), tab: newNodeTable(n + 3*n/4), nodes: make([]node, 0, n+5*n/8)}
	m.Rows = make([][8]int32, n)
	for i := 0; i < n; {
		e, tree := m.Leaves[i], m.Trees[i]
		if _, ok := f.Family(i); !ok {
			for c := range m.Rows[i] {
				m.Rows[i][c] = x.resolve(tree, cornerPos(e, c), true)
			}
			i++
			continue
		}
		var lat [27]int32
		pa, h := e.Parent(), e.Len()
		for l := range lat {
			p := [3]uint32{pa.X + uint32(l%3)*h, pa.Y + uint32(l/3%3)*h, pa.Z + uint32(l/9)*h}
			if l%3 == 0 || l/3%3 == 0 || l/9 == 0 || !inside(p) {
				lat[l] = x.resolve(tree, p, true)
				continue
			}
			// Off the parent's lower faces and inside the tree, a point is
			// met here first: a leaf touching it is a child of this parent
			// or lies beyond it in +x, +y or +z, later along the curve. Its
			// first incident cell lies in the parent, so it is owned here
			// (newNode's rule) and has one representation with 8 sides.
			lat[l] = int32(len(x.nodes))
			x.nodes = append(x.nodes, node{canon: forest.NodePos{Tree: tree, Pos: p}, owner: x.me, cell: -1, at: -1, short: 8})
			if l != 13 {
				x.tab.put(tree, posKey(p), lat[l])
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
	// newNode.
	for _, row := range m.Rows {
		for _, ni := range row {
			x.nodes[ni].short--
		}
	}
	for _, o := range ghosts {
		for c := 0; c < 8; c++ {
			if ni := x.resolve(o.Tree, cornerPos(o.O, c), false); ni >= 0 {
				x.nodes[ni].short--
			}
		}
	}

	// Physical geometry of the element corners, read while the rows
	// still hold every corner's node.
	if g != nil {
		m.X = x.coords(m, g)
	}

	// Classify every element corner: a row entry stays its node's index,
	// or becomes ^h for a hanging corner whose masters' node indices are
	// Hang[h]; the indices are replaced by slots once those are assigned.
	// A corner hangs iff classify's test holds for its lattice point, so
	// the hanging table is allocated at its final length.
	nh := 0
	for i, e := range m.Leaves {
		if e.Level == 0 {
			continue
		}
		lat := &latticeOf[e.ChildID()]
		for d, ni := range m.Rows[i] {
			if between[lat[d]] != 0 && x.nodes[ni].short != 0 {
				nh++
			}
		}
	}
	m.Hang = make([]Hang, 0, nh)
	for i := 0; i < n; {
		k := 1
		if _, ok := f.Family(i); ok {
			k = 8
		}
		x.classify(m, i, k)
		i += k
	}

	keys := make([]canonKey, 0, x.masters)
	for ni := range x.nodes {
		if nd := &x.nodes[ni]; nd.master {
			keys = append(keys, canonKey{pos: posKey(nd.canon.Pos), tree: nd.canon.Tree, owner: nd.owner, node: int32(ni)})
		}
	}
	var owned []canonKey
	var slot []int32
	m.layout, owned, slot, m.GX = numberNodes(r, keys, len(x.nodes))
	m.NumOwned = len(owned)
	m.Offset, m.NGlobal = m.layout.Start(), m.layout.N()
	m.OwnedPos = make([][3]uint32, m.NumOwned)
	m.OwnedTree = make([]int32, m.NumOwned)
	m.OwnedCell = make([]forest.Octant, m.NumOwned)
	m.OwnedCellPos = make([][3]uint32, m.NumOwned)
	if g != nil {
		m.OwnedX = make([][3]float64, m.NumOwned)
	}
	for li, k := range owned {
		nd := &x.nodes[k.node]
		m.OwnedPos[li], m.OwnedTree[li] = nd.canon.Pos, nd.canon.Tree
		rp := nd.canon
		if nd.cell >= 0 {
			rp = x.cells[nd.cell]
		}
		m.OwnedCell[li], _ = firstCell(rp)
		m.OwnedCellPos[li] = rp.Pos
		if g != nil && nd.at >= 0 {
			m.OwnedX[li] = m.X[nd.at>>3][nd.at&7]
		} else if g != nil {
			m.OwnedX[li] = g.NodeCoord(nd.canon.Tree, nd.canon.Pos)
		}
	}

	// Replace the node indices in the corner rows and hanging table by
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
	return m
}

// canonKey is a node's canonical representation packed for sorting,
// (tree, position key), with its owner and the index it stands for.
type canonKey struct {
	pos   uint64
	tree  int32
	owner int32
	node  int32
}

// cmpCanon orders canonKeys tree-major, then by position key. Distinct
// nodes have distinct canonical representations, so it has no ties.
func cmpCanon(a, b canonKey) int {
	if a.tree != b.tree {
		return cmp.Compare(a.tree, b.tree)
	}
	return cmp.Compare(a.pos, b.pos)
}

// major packs the owner and the tree of k, the fields sortCanon orders
// by before the position key.
func (k *canonKey) major() uint64 { return uint64(uint32(k.owner))<<32 | uint64(uint32(k.tree)) }

// digit returns the byte of k's position key (w = 0) or of its major
// fields (w = 1) from bit s.
func (k *canonKey) digit(w int, s uint) uint8 {
	if w == 0 {
		return uint8(k.pos >> s)
	}
	return uint8(k.major() >> s)
}

// sortCanon sorts keys by owner, then in cmpCanon's order, with a
// least-significant-digit radix sort over the 8-bit windows in which
// some keys differ: a few linear passes, however the positions are
// spread. tmp is scratch of the same length; the sorted keys are in
// whichever of the two it returns.
func sortCanon(keys, tmp []canonKey) []canonKey {
	if len(keys) < 2 {
		return keys
	}
	var diff [2]uint64 // the bits in which a key differs from the first
	k0 := &keys[0]
	for i := range keys {
		diff[0] |= keys[i].pos ^ k0.pos
		diff[1] |= keys[i].major() ^ k0.major()
	}
	for w, d := range diff {
		for d != 0 {
			s := uint(bits.TrailingZeros64(d))
			var start [256]int32
			for i := range keys {
				start[keys[i].digit(w, s)]++
			}
			var sum int32
			for b, c := range start {
				start[b], sum = sum, sum+c
			}
			for i := range keys {
				b := keys[i].digit(w, s)
				tmp[start[b]] = keys[i]
				start[b]++
			}
			keys, tmp = tmp, keys
			d &^= 0xff << s
		}
	}
	return keys
}

// numberNodes numbers the nodes a rank references and builds its ghost
// plan (collective). keys holds each node's canonical key and owner, its
// node the caller's index in [0, n); numberNodes reorders them. The
// owned ones are numbered by canonical key: slot = local index = global
// id - Offset. The others are asked of their owners in the same order —
// the order of the owner's numbering — so each owner's ghosts are
// listed, answered and laid out in ascending global id. Only actual
// neighbor ranks exchange messages. The handshake leaves both sides of
// the ghost plan behind: the ghosts this rank was told the ids of, per
// owner, are the slots it will request, and the nodes it looked up for
// an asker are the ones it will serve, in the order asked —
// la.NewGhostExchange would negotiate the same tables. It returns the
// node layout, the owned nodes' keys in slot order, the slot of every
// caller index and the plan.
func numberNodes(r *sim.Rank, keys []canonKey, n int) (*la.Layout, []canonKey, []int32, *la.GhostExchange) {
	me := int32(r.ID())
	keys = sortCanon(keys, make([]canonKey, len(keys)))
	lo, _ := slices.BinarySearchFunc(keys, me, func(k canonKey, o int32) int { return cmp.Compare(k.owner, o) })
	hi, _ := slices.BinarySearchFunc(keys, me+1, func(k canonKey, o int32) int { return cmp.Compare(k.owner, o) })
	owned := keys[lo:hi]
	layout := la.NewLayout(r, len(owned))
	slot := make([]int32, n)
	for li, k := range owned {
		slot[k.node] = int32(li)
	}

	// Each other owner's run of keys is one ask, in its numbering order.
	nAsk := len(keys) - len(owned)
	posBuf, slotBuf := make([]forest.NodePos, nAsk), make([]int32, nAsk)
	var owners []int
	var reqSlot [][]int32
	var askOut []any
	var askNB []int
	nGhost := 0
	for i := 0; i < len(keys); {
		o, j := keys[i].owner, i+1
		for j < len(keys) && keys[j].owner == o {
			j++
		}
		if o != me {
			pos, slots := posBuf[nGhost:nGhost+j-i:nGhost+j-i], slotBuf[nGhost:nGhost+j-i:nGhost+j-i]
			for q, k := range keys[i:j] {
				pos[q] = forest.NodePos{Tree: k.tree, Pos: unpackKey(k.pos)}
				slots[q] = int32(nGhost + q)
				slot[k.node] = int32(len(owned) + nGhost + q)
			}
			nGhost += j - i
			owners = append(owners, int(o))
			reqSlot = append(reqSlot, slots)
			askOut = append(askOut, pos)
			askNB = append(askNB, 16*len(pos))
		}
		i = j
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
	gx := la.NewGhostExchangeAgreed(layout, ghostIDs, owners, reqSlot, servers, sendIdx)
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
// to send: the leaves below an interior grandparent are skipped after one
// test, those of a family whose parent is interior after two.
func exchangeGhosts(f *forest.Forest) []forest.Octant {
	byRank := make([][]forest.Octant, f.Rank().Size())
	ranks := make([]int, 0, 32)
	var grand, parent forest.Octant
	inGrand, inParent := false, false // grand, parent is interior
	for li, o := range f.Leaves() {
		if inGrand && grand.Tree == o.Tree && grand.O.IsAncestorOf(o.O) {
			continue
		}
		if o.O.Level > 1 {
			if g := (forest.Octant{Tree: o.Tree, O: o.O.Ancestor(o.O.Level - 2)}); li == 0 || g != grand {
				if grand, inGrand = g, interior(f, g, ranks); inGrand {
					continue
				}
			}
		}
		if o.O.Level > 0 {
			if pa := (forest.Octant{Tree: o.Tree, O: o.O.Parent()}); li == 0 || pa != parent {
				parent, inParent = pa, interior(f, pa, ranks)
			}
			if inParent {
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
