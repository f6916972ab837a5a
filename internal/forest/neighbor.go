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

// dirIndex returns the index in Dirs26 of direction (dx, dy, dz).
func dirIndex(dx, dy, dz int) int {
	i := (dz+1)*9 + (dy+1)*3 + dx + 1
	if i > 13 {
		i--
	}
	return i
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

// leaving returns the directions, as bits (d_x+1) + 3(d_y+1) + 9(d_z+1),
// in which an octant's neighbours leave its tree on the axes where they
// do: each d_a is an offset in leave[a] (bit d_a+1), 0 included, and d
// is not 0.
func leaving(leave [3]uint8) uint32 {
	if leave == [3]uint8{2, 2, 2} {
		return 0
	}
	var m uint32
	for dz := 0; dz < 3; dz++ {
		for dy := 0; dy < 3; dy++ {
			for dx := 0; dx < 3; dx++ {
				if (leave[0]>>dx)&(leave[1]>>dy)&(leave[2]>>dz)&1 != 0 {
					m |= 1 << (dx + 3*dy + 9*dz)
				}
			}
		}
	}
	return m &^ (1 << 13)
}

// dilX selects the x bits of a Morton interleave (morton.Octant.Key
// without its level field); y and z are the same mask shifted by 1 and 2.
const dilX = 0x1249249249249249 & (1<<(3*morton.MaxLevel) - 1)

// GhostRanks appends to dst, once each, the ranks other than this one
// whose curve segment overlaps one of o's 26 same-size neighbours, across
// tree faces, edges and corners included: the ranks whose ghost layer
// holds o. It equals Neighbor, Contains and Owners over Dirs26, but a
// neighbour inside o's tree is placed on the curve by dilated arithmetic
// on o's key, adding or subtracting the edge length in one axis's bits,
// and only one across a tree boundary goes through Neighbor, unless one
// rank holds the whole tree it lies in or there is none. The curve is
// monotone in each coordinate, so the in-tree neighbours lie between the
// lowest and the highest: when both lie in this rank's segment, so do the
// others, and when one remote rank's segment alone meets that range, the
// in-tree neighbours are done once they have found it. A leaf on its
// tree's boundary looks across only where a tree lies across (the tree's
// tied mask): on a physical boundary it is as sealed as inside.
func (f *Forest) GhostRanks(o Octant, dst []int) []int {
	const off = ^uint64(0) // the offset leaves the tree
	me, span := f.rank.ID(), gspan(o)
	first, end := f.starts[me], f.starts[me+1]
	base, key := uint64(o.Tree)*curveEnd, o.O.Key()>>5
	low, high := base, base+span
	var bits [3][3]uint64 // per axis, the neighbour's bits at -h, 0, +h
	// Per axis, bit d+1 for each offset d a neighbour may take on the
	// axes where it leaves the tree: 0, and -1 or +1 where o touches
	// that face.
	leave := [3]uint8{2, 2, 2}
	for a, x := range [3]uint32{o.O.X, o.O.Y, o.O.Z} {
		mask, hd := uint64(dilX)<<a, span<<a // the edge length, dilated
		k := key & mask
		bits[a] = [3]uint64{off, k, off}
		if x > 0 {
			bits[a][0] = (k - hd) & mask
		}
		if x+o.O.Len() < morton.RootLen {
			bits[a][2] = ((k | ^mask) + hd) & mask
		}
		lo, hi := bits[a][0], bits[a][2]
		if lo == off {
			lo, leave[a] = k, leave[a]|1
		}
		if hi == off {
			hi, leave[a] = k, leave[a]|4
		}
		low, high = low+lo, high+hi
	}
	crosses := f.Conn.tied[o.Tree]&leaving(leave) != 0 // some neighbour lies in another tree
	sealed := first <= low && high <= end              // every in-tree neighbour is local
	if sealed && !crosses {
		return dst
	}
	// one is the only remote rank whose segment meets the in-tree
	// neighbours' curve range (-1: none or several); once dst holds it the
	// in-tree neighbours can add nothing.
	n0, one, found := len(dst), -1, false
	if !sealed {
		remote, ext := 0, f.owners(low, high-low, dst)
		for _, rk := range ext[n0:] {
			if rk != me {
				one, remote = rk, remote+1
			}
		}
		dst = ext[:n0] // keeps the grown buffer
		if remote != 1 {
			one = -1
		}
	}
	for _, d := range Dirs26 {
		bx, by, bz := bits[0][d[0]+1], bits[1][d[1]+1], bits[2][d[2]+1]
		lo, sp := base|bx|by|bz, span
		if bx == off || by == off || bz == off {
			var out [3]int // d on the axes on which the neighbour leaves the tree
			for a, b := range [3]uint64{bx, by, bz} {
				if b == off {
					out[a] = d[a]
				}
			}
			nt := f.Conn.across[o.Tree][dirIndex(out[0], out[1], out[2])]
			if nt < 0 {
				continue
			}
			tb, k := uint64(nt)*curveEnd, len(dst)
			if first <= tb && tb+curveEnd <= end {
				continue // the whole tree across is local
			}
			ext := f.owners(tb, curveEnd, dst)
			if dst = ext[:k]; len(ext) == k+1 {
				// One rank holds the tree across, so the neighbour.
				if slices.Contains(dst[n0:], ext[k]) {
					continue
				}
				lo, sp = tb, curveEnd
			} else {
				n, ok := f.Neighbor(o, d)
				if !ok {
					continue
				}
				lo = gpos(n)
			}
		} else if sealed || found {
			continue
		}
		if first <= lo && lo+sp <= end {
			continue
		}
		k := len(dst)
		dst = f.owners(lo, sp, dst)
		kept := dst[:k]
		for _, rk := range dst[k:] {
			if rk != me && !slices.Contains(kept[n0:], rk) {
				kept = append(kept, rk)
				found = found || rk == one
			}
		}
		dst = kept
	}
	return dst
}
