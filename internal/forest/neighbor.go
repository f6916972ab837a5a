package forest

import (
	"cmp"
	"slices"

	"rhea/internal/morton"
)

// Dirs26 enumerates the 26 face, edge and corner neighbor directions of a
// cube, each component -1, 0 or +1.
var Dirs26 = buildDirs26()

func buildDirs26() [][3]int {
	var out [][3]int
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				out = append(out, [3]int{dx, dy, dz})
			}
		}
	}
	return out
}

// MapOctant maps an octant anchor given in tree's reference frame —
// possibly outside [0, RootLen) along any number of axes — into the tree
// that contains it, hopping across face connections one out-of-range axis
// at a time. Neighbors across tree edges and corners are reached by two
// or three hops; for the face-consistent connectivities built here
// (bricks, cubed spheres) the composition is path-independent. The second
// return is false when a hop reaches a physical boundary.
func (c *Connectivity) MapOctant(tree int32, p [3]int64, level uint8) (Octant, bool) {
	l := int64(1) << (morton.MaxLevel - uint32(level))
	for hop := 0; hop < 4; hop++ {
		face := -1
		for a := 0; a < 3; a++ {
			if p[a] < 0 {
				face = 2 * a
				break
			}
			if p[a] >= morton.RootLen {
				face = 2*a + 1
				break
			}
		}
		if face < 0 {
			return Octant{Tree: tree, O: morton.Octant{
				X: uint32(p[0]), Y: uint32(p[1]), Z: uint32(p[2]), Level: level}}, true
		}
		fc := &c.conns[tree][face]
		if !fc.ok {
			return Octant{}, false
		}
		// Map both extreme corners through the affine transform; the image
		// anchor is the componentwise minimum.
		a1 := fc.apply(p)
		a2 := fc.apply([3]int64{p[0] + l, p[1] + l, p[2] + l})
		for i := 0; i < 3; i++ {
			if a2[i] < a1[i] {
				a1[i] = a2[i]
			}
		}
		p = a1
		tree = fc.tree
	}
	return Octant{}, false
}

// Neighbor returns the equal-size neighbor of o in direction d (a Dirs26
// entry), following inter-tree face connections — including two- and
// three-hop compositions for neighbors across tree edges and corners.
// The second return is false at a physical boundary.
func (f *Forest) Neighbor(o Octant, d [3]int) (Octant, bool) {
	l := int64(o.O.Len())
	p := [3]int64{
		int64(o.O.X) + int64(d[0])*l,
		int64(o.O.Y) + int64(d[1])*l,
		int64(o.O.Z) + int64(d[2])*l,
	}
	return f.Conn.MapOctant(o.Tree, p, o.O.Level)
}

// NodePos is one (tree, position) representation of a forest node; the
// position is in the tree's reference frame and may include RootLen (the
// far tree boundary).
type NodePos struct {
	Tree int32
	Pos  [3]uint32
}

// comparePos orders representations tree-major, then by packed position.
func comparePos(a, b NodePos) int {
	if a.Tree != b.Tree {
		return cmp.Compare(a.Tree, b.Tree)
	}
	ka := uint64(a.Pos[0]) | uint64(a.Pos[1])<<21 | uint64(a.Pos[2])<<42
	kb := uint64(b.Pos[0]) | uint64(b.Pos[1])<<21 | uint64(b.Pos[2])<<42
	return cmp.Compare(ka, kb)
}

// NodeReps appends to dst every (tree, position) representation of the
// node at pos in tree's frame: the transitive closure of mapping
// representations that lie on a connected tree face through that face's
// transform. The result is sorted, so its first entry is a canonical
// representative every rank computes identically. Alignment levels are
// invariant across representations (transforms are signed permutations
// with offsets that are multiples of RootLen), so hanging-node
// classification agrees between trees.
func (c *Connectivity) NodeReps(tree int32, pos [3]uint32, dst []NodePos) []NodePos {
	dst = append(dst[:0], NodePos{tree, pos})
	for i := 0; i < len(dst); i++ {
		rp := dst[i]
		for face := 0; face < 6; face++ {
			ax := faceNormalAxis[face]
			var onFace bool
			if faceNormalSign[face] < 0 {
				onFace = rp.Pos[ax] == 0
			} else {
				onFace = rp.Pos[ax] == morton.RootLen
			}
			if !onFace {
				continue
			}
			fc := &c.conns[rp.Tree][face]
			if !fc.ok {
				continue
			}
			q := fc.apply([3]int64{int64(rp.Pos[0]), int64(rp.Pos[1]), int64(rp.Pos[2])})
			np := NodePos{fc.tree, [3]uint32{uint32(q[0]), uint32(q[1]), uint32(q[2])}}
			dup := false
			for _, e := range dst {
				if e == np {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, np)
			}
		}
	}
	if len(dst) > 1 {
		slices.SortFunc(dst, comparePos)
	}
	return dst
}
