package mesh

// The search-based extraction that the reference-count classification,
// the family lattice and the arithmetic ghost test replaced, kept as the
// oracle: its ghost layer tests each leaf's 26 neighbours through
// forest.Neighbor, Contains and Owners, and a corner hangs when a binary
// search over the sorted local and ghost leaves finds a coarser leaf
// touching it. TestExtractMatchesSearchOracle holds Extract to it bit for
// bit.

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// leafSet is a tree-major sorted collection of forest octants
// (local + ghost) supporting containment queries. keys caches each
// leaf's Morton key.
type leafSet struct {
	leaves []forest.Octant
	keys   []uint64
}

// newLeafSet places the sorted ghosts around the local leaves, which are
// already in curve order.
func newLeafSet(local, ghosts []forest.Octant) *leafSet {
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

// touchesCoarser reports whether a leaf coarser than level touches the
// node rp, whose alignment level is level: whether one of the level-1
// octants around it is a leaf or lies inside one.
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

// interiorRef reports whether octant o and its 26 same-level neighbours
// all lie inside this rank's curve segment.
func interiorRef(f *forest.Forest, o forest.Octant) bool {
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

// exchangeGhostsRef sends each local leaf to every remote rank owning
// part of one of its 26 neighbours and returns the ghosts received,
// sorted and without duplicates.
func exchangeGhostsRef(f *forest.Forest) []forest.Octant {
	r := f.Rank()
	byRank := make([][]forest.Octant, r.Size())
	marked := make([]int, r.Size())
	for i := range marked {
		marked[i] = -1
	}
	var owners []int
	var parent forest.Octant
	skip := false
	for li, o := range f.Leaves() {
		if o.O.Level > 0 {
			if pa := (forest.Octant{Tree: o.Tree, O: o.O.Parent()}); li == 0 || pa != parent {
				parent, skip = pa, interiorRef(f, pa)
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
	ghosts := f.ExchangeOctants(byRank)
	slices.SortFunc(ghosts, forest.Compare)
	return slices.Compact(ghosts)
}

// extractRef is Extract as it classified corners by search: every corner
// resolved through the node table, a node with alignment level L hanging
// on a level-L element iff touchesCoarser finds a leaf of level L-1, its
// masters resolved at P -/+ h one by one. It returns the mesh and the
// ghost layer.
func extractRef(f *forest.Forest, g Geometry) (*Mesh, []forest.Octant) {
	r := f.Rank()
	m := &Mesh{Rank: r, Conn: f.Conn, Geom: g}
	m.Leaves = make([]morton.Octant, len(f.Leaves()))
	m.Trees = make([]int32, len(f.Leaves()))
	for i, o := range f.Leaves() {
		m.Leaves[i], m.Trees[i] = o.O, o.Tree
	}
	ghosts := exchangeGhostsRef(f)
	m.NumGhostLeaves = len(ghosts)
	all := newLeafSet(f.Leaves(), ghosts)

	var nodes []nodeInfo
	var coarser []bool
	var needOf []int32
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
		info, _ := resolveNode(f, reps)
		level := alignLevel(reps[0].Pos)
		c := false
		for _, rp := range reps {
			c = c || level > 0 && touchesCoarser(all, rp, level)
		}
		nodes, coarser, needOf = append(nodes, info), append(coarser, c), append(needOf, -1)
		tab.put(ct, ck, ni)
		if aliased {
			tab.put(tree, k, ni)
		}
		return ni
	}
	var need []int32
	noteMaster := func(ni int32) int32 {
		if needOf[ni] < 0 {
			needOf[ni] = int32(len(need))
			need = append(need, ni)
		}
		return needOf[ni]
	}

	m.Rows = make([][8]int32, len(m.Leaves))
	for ei, e := range m.Leaves {
		tree := m.Trees[ei]
		L := e.Level
		h := e.Len()
		for c := 0; c < 8; c++ {
			P := cornerPos(e, c)
			ni := resolve(tree, P)
			if alignLevel(P) != L || !coarser[ni] {
				m.Rows[ei][c] = noteMaster(ni)
				continue
			}
			var axes []int
			coarse := uint32(1)<<(morton.MaxLevel-uint32(L)+1) - 1
			for a := 0; a < 3; a++ {
				if P[a]&coarse != 0 {
					axes = append(axes, a)
				}
			}
			hc := Hang{N: 1 << len(axes)}
			for k := 0; k < int(hc.N); k++ {
				mp := P
				for bi, a := range axes {
					if k>>bi&1 == 0 {
						mp[a] -= h
					} else {
						mp[a] += h
					}
				}
				hc.Slot[k] = noteMaster(resolve(tree, mp))
			}
			m.Rows[ei][c] = ^int32(len(m.Hang))
			m.Hang = append(m.Hang, hc)
		}
	}

	var owned []canonKey
	var slot []int32
	m.layout, owned, slot, m.GX = numberNodes(r, nodes, need)
	m.NumOwned = len(owned)
	m.Offset, m.NGlobal = m.layout.Start(), m.layout.N()
	for _, k := range owned {
		info := &nodes[need[k.need]]
		m.OwnedPos = append(m.OwnedPos, info.canon.Pos)
		m.OwnedTree = append(m.OwnedTree, info.canon.Tree)
		m.OwnedCell = append(m.OwnedCell, info.cell)
		m.OwnedCellPos = append(m.OwnedCellPos, info.cellPos)
	}
	for ei := range m.Rows {
		for c, s := range m.Rows[ei] {
			if s >= 0 {
				m.Rows[ei][c] = slot[s]
			}
		}
	}
	for i := range m.Hang {
		for k := 0; k < int(m.Hang[i].N); k++ {
			m.Hang[i].Slot[k] = slot[m.Hang[i].Slot[k]]
		}
	}
	return m, ghosts
}

// randomMark refines a leaf with probability 1/3, decided from the
// octant and the seed alone so every rank marks alike.
func randomMark(seed int64) func(forest.Octant) bool {
	return func(o forest.Octant) bool {
		x := o.O.Key()*0xbf58476d1ce4e5b9 + uint64(o.Tree)*0x9e3779b97f4a7c15 + uint64(seed)*0x94d049bb133111eb
		x ^= x >> 29
		x *= 0x94d049bb133111eb
		x ^= x >> 32
		return x%3 == 0
	}
}

// TestExtractMatchesSearchOracle holds Extract to the search-based
// extraction bit for bit: corner rows, hanging table, owned-node tables,
// numbering, ghost plan and ghost leaves, on the digest cases, the tilted
// front box and shell, box-amr's level front (which the 2-rank split cuts
// along its length) and randomly refined forests, at 1, 2 and 4 ranks.
func TestExtractMatchesSearchOracle(t *testing.T) {
	type tcase struct {
		name  string
		conn  *forest.Connectivity
		geom  Geometry
		build func(r *sim.Rank) *forest.Forest
	}
	var cases []tcase
	for _, dc := range digestCases {
		dc := dc
		cases = append(cases, tcase{"digest-" + dc.name, dc.conn, dc.geom(dc.conn), func(r *sim.Rank) *forest.Forest {
			f := forest.New(r, dc.conn, dc.base)
			for pass := 0; pass < dc.passes; pass++ {
				pass := pass
				f.Refine(func(o forest.Octant) bool { return digestMark(o, pass) })
			}
			f.Balance()
			return f
		}})
	}
	shell := forest.CubedSphere(2)
	brick := forest.BrickConnectivity(2, 2, 1)
	cases = append(cases,
		tcase{"front-box", unitBox, nil, func(r *sim.Rank) *forest.Forest { return frontForest(r, unitBox, 2, 5, tilted) }},
		tcase{"front-shell", shell, NewShellGeometry(shell), func(r *sim.Rank) *forest.Forest { return frontForest(r, shell, 1, 3, tilted) }},
		tcase{"level-box", unitBox, nil, func(r *sim.Rank) *forest.Forest { return frontForest(r, unitBox, 2, 5, level) }},
	)
	for seed := int64(1); seed <= 3; seed++ {
		for _, c := range []struct {
			name         string
			conn         *forest.Connectivity
			geom         Geometry
			base, passes int
		}{
			{"box", unitBox, nil, 2, 3},
			{"brick221", brick, TrilinearGeometry{Conn: brick}, 1, 3},
			{"shell", shell, NewShellGeometry(shell), 1, 2},
		} {
			seed, c := seed, c
			cases = append(cases, tcase{fmt.Sprintf("random-%s-%d", c.name, seed), c.conn, c.geom, func(r *sim.Rank) *forest.Forest {
				f := forest.New(r, c.conn, uint8(c.base))
				for pass := 0; pass < c.passes; pass++ {
					f.Refine(randomMark(seed*10 + int64(pass)))
				}
				f.Balance()
				return f
			}})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{1, 2, 4} {
				sim.Run(p, func(r *sim.Rank) {
					f := tc.build(r)
					f.Partition()
					id := fmt.Sprintf("%s p=%d rank %d", tc.name, p, r.ID())
					m := Extract(f, tc.geom)
					ghosts := exchangeGhosts(f)
					want, wantGhosts := extractRef(f, tc.geom)
					if r.AllreduceInt64(int64(len(want.Hang))) == 0 {
						t.Errorf("%s: no hanging corners, the case holds nothing interesting", id)
					}
					for _, c := range []struct {
						what string
						same bool
					}{
						{"Rows", slices.Equal(m.Rows, want.Rows)},
						{"Hang", slices.Equal(m.Hang, want.Hang)},
						{"OwnedPos", slices.Equal(m.OwnedPos, want.OwnedPos)},
						{"OwnedTree", slices.Equal(m.OwnedTree, want.OwnedTree)},
						{"OwnedCell", slices.Equal(m.OwnedCell, want.OwnedCell)},
						{"OwnedCellPos", slices.Equal(m.OwnedCellPos, want.OwnedCellPos)},
						{"Offset/NGlobal/NumOwned", m.Offset == want.Offset && m.NGlobal == want.NGlobal && m.NumOwned == want.NumOwned},
						{"GX", planTables(m.GX) == planTables(want.GX)},
						{"ghost leaves", slices.Equal(ghosts, wantGhosts)},
						{"NumGhostLeaves", m.NumGhostLeaves == want.NumGhostLeaves},
					} {
						if !c.same {
							t.Errorf("%s: %s differ from the search oracle's", id, c.what)
						}
					}
				})
			}
		})
	}
}

// TestExtractRejectsUnbalanced: on the unit box at level 2, refining every
// leaf inside the origin octant twice puts level-4 leaves against level-2
// ones, and the search oracle classifies 132 corners as hanging on masters
// inside level-2 faces without complaint. Extract must refuse the forest
// at 1 and 2 ranks (where only rank 0 holds the fine block) and name 2:1
// balance; balancing the same forest first must extract.
func TestExtractRejectsUnbalanced(t *testing.T) {
	build := func(r *sim.Rank) *forest.Forest {
		f := forest.New(r, unitBox, 2)
		for i := 0; i < 2; i++ {
			f.Refine(func(o forest.Octant) bool {
				const q = morton.RootLen / 4
				return o.O.X < q && o.O.Y < q && o.O.Z < q
			})
		}
		return f
	}
	for _, p := range []int{1, 2} {
		var hanging int64
		_, err := sim.NewWorld(p).Run(func(r *sim.Rank) {
			f := build(r)
			m, _ := extractRef(f, nil)
			if n := r.AllreduceInt64(int64(len(m.Hang))); r.ID() == 0 {
				hanging = n
			}
			Extract(f, nil)
		})
		if hanging != 132 {
			t.Errorf("p=%d: the oracle found %d hanging corners, want 132", p, hanging)
		}
		if err == nil || !strings.Contains(err.Error(), "not 2:1 balanced") {
			t.Errorf("p=%d: Extract accepted an unbalanced forest (err %v)", p, err)
		}
		sim.Run(p, func(r *sim.Rank) {
			f := build(r)
			f.Balance()
			Extract(f, nil)
		})
	}
}
