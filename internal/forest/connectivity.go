// Package forest implements the forest-of-octrees layer of ALPS — the
// P4EST library of the paper (§VII): a collection of octrees whose roots
// are the cells of an unstructured hexahedral macro-mesh (the
// "connectivity"), with inter-tree coordinate transforms derived from
// shared vertices, and forest-wide refinement, coarsening, 2:1 balancing
// and space-filling-curve partitioning.
//
// A connectivity is specified exactly as in p4est: one list of vertices
// and, per tree, the eight vertex ids of its corners in z-order. Face
// connections and their orientation transforms are derived automatically
// by matching the four-vertex sets of tree faces; the transform between
// connected trees is the unique signed axis permutation consistent with
// the corner correspondence.
//
// Every rank keeps its leaves as one array sorted along the forest-wide
// space-filling curve, and every adaptation function is a pass over it:
// Refine and Coarsen copy it, Partition cuts it, Balance merges sorted
// lists of 2:1 demands into it level by level (balance.go). None keeps a
// hash set of octants.
package forest

import (
	"fmt"
	"math"

	"rhea/internal/morton"
)

// Connectivity is the macro-mesh of tree roots.
type Connectivity struct {
	Verts     [][3]float64 // vertex coordinates (geometry only)
	TreeVerts [][8]int     // per tree: corner vertex ids in z-order

	conns [][6]faceConn // derived: face connections per tree
}

// faceConn describes the neighbor across one tree face.
type faceConn struct {
	ok   bool
	tree int32
	face int8
	// Affine transform dst = A*src + t mapping source-tree octant
	// coordinates (possibly outside [0,RootLen)) into the neighbor
	// tree's frame. A is a signed permutation: dst[i] = sign[i]*src[perm[i]].
	perm [3]int8
	sign [3]int8
	off  [3]int64
}

// NumTrees returns the number of trees.
func (c *Connectivity) NumTrees() int { return len(c.TreeVerts) }

// faceCorners lists, for each face (-x,+x,-y,+y,-z,+z), the four corner
// ids (z-order) lying on it.
var faceCorners = [6][4]int{
	{0, 2, 4, 6}, // -x
	{1, 3, 5, 7}, // +x
	{0, 1, 4, 5}, // -y
	{2, 3, 6, 7}, // +y
	{0, 1, 2, 3}, // -z
	{4, 5, 6, 7}, // +z
}

// faceNormalAxis and faceNormalSign give the outward normal of each face.
var faceNormalAxis = [6]int{0, 0, 1, 1, 2, 2}
var faceNormalSign = [6]int{-1, 1, -1, 1, -1, 1}

// cornerCoord returns the coordinates of cube corner c in tree units.
func cornerCoord(c int) [3]int64 {
	var p [3]int64
	if c&1 != 0 {
		p[0] = morton.RootLen
	}
	if c&2 != 0 {
		p[1] = morton.RootLen
	}
	if c&4 != 0 {
		p[2] = morton.RootLen
	}
	return p
}

// Finalize derives the face connections. It must be called once after
// filling Verts/TreeVerts (the constructors below do it for you).
func (c *Connectivity) Finalize() error {
	nt := len(c.TreeVerts)
	c.conns = make([][6]faceConn, nt)
	// Map from sorted 4-vertex key to (tree, face) list.
	type tf struct {
		tree int
		face int
	}
	faces := map[[4]int][]tf{}
	for t := 0; t < nt; t++ {
		for f := 0; f < 6; f++ {
			var key [4]int
			for i, ci := range faceCorners[f] {
				key[i] = c.TreeVerts[t][ci]
			}
			sort4(&key)
			faces[key] = append(faces[key], tf{t, f})
		}
	}
	for key, list := range faces {
		if len(list) > 2 {
			return fmt.Errorf("forest: face %v shared by %d trees", key, len(list))
		}
		if len(list) != 2 {
			continue // physical boundary
		}
		a, b := list[0], list[1]
		ca, err := deriveTransform(c, a.tree, a.face, b.tree, b.face)
		if err != nil {
			return err
		}
		cb, err := deriveTransform(c, b.tree, b.face, a.tree, a.face)
		if err != nil {
			return err
		}
		c.conns[a.tree][a.face] = ca
		c.conns[b.tree][b.face] = cb
	}
	return nil
}

func sort4(k *[4]int) {
	for i := 1; i < 4; i++ {
		for j := i; j > 0 && k[j] < k[j-1]; j-- {
			k[j], k[j-1] = k[j-1], k[j]
		}
	}
}

// deriveTransform finds the signed permutation mapping source tree sa's
// frame across its face fa into tree sb's frame arriving at face fb.
func deriveTransform(c *Connectivity, sa, fa, sb, fb int) (faceConn, error) {
	// Corner correspondence: vertex id -> corner index in each tree.
	vb := map[int]int{}
	for ci, v := range c.TreeVerts[sb] {
		vb[v] = ci
	}
	// The transform must map each shared face corner of sa onto the
	// matching corner of sb, and the outward normal of fa onto the
	// inward normal of fb.
	type pair struct{ src, dst [3]int64 }
	var pairs []pair
	for _, ci := range faceCorners[fa] {
		v := c.TreeVerts[sa][ci]
		cj, ok := vb[v]
		if !ok {
			return faceConn{}, fmt.Errorf("forest: vertex %d of tree %d not on tree %d", v, sa, sb)
		}
		pairs = append(pairs, pair{cornerCoord(ci), cornerCoord(cj)})
	}
	na := faceNormalAxis[fa]
	nb := faceNormalAxis[fb]
	for p := 0; p < 48; p++ {
		perm, sign := permFromIndex(p)
		// Normal condition: axis na (sign faceNormalSign[fa]) must map to
		// axis nb with sign -faceNormalSign[fb].
		if perm[nb] != int8(na) {
			continue
		}
		if int(sign[nb])*faceNormalSign[fa] != -faceNormalSign[fb] {
			continue
		}
		// Offset from the first corner pair.
		var off [3]int64
		okAll := true
		for i := 0; i < 3; i++ {
			off[i] = pairs[0].dst[i] - int64(sign[i])*pairs[0].src[perm[i]]
		}
		for _, pr := range pairs {
			for i := 0; i < 3; i++ {
				if int64(sign[i])*pr.src[perm[i]]+off[i] != pr.dst[i] {
					okAll = false
					break
				}
			}
			if !okAll {
				break
			}
		}
		if okAll {
			return faceConn{ok: true, tree: int32(sb), face: int8(fb), perm: perm, sign: sign, off: off}, nil
		}
	}
	return faceConn{}, fmt.Errorf("forest: no valid transform between tree %d face %d and tree %d face %d", sa, fa, sb, fb)
}

// permFromIndex enumerates the 48 signed permutations.
func permFromIndex(i int) (perm [3]int8, sign [3]int8) {
	perms := [6][3]int8{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	perm = perms[i%6]
	s := i / 6
	for a := 0; a < 3; a++ {
		if s>>a&1 == 1 {
			sign[a] = -1
		} else {
			sign[a] = 1
		}
	}
	return
}

// apply maps a source coordinate (octant anchor plus extent handling by
// the caller) through the connection.
func (fc *faceConn) apply(p [3]int64) [3]int64 {
	var q [3]int64
	for i := 0; i < 3; i++ {
		q[i] = int64(fc.sign[i])*p[fc.perm[i]] + fc.off[i]
	}
	return q
}

// BrickConnectivity builds an nx x ny x nz grid of trees with matching
// axis orientations (the multi-tree generalization of a Cartesian box).
func BrickConnectivity(nx, ny, nz int) *Connectivity {
	c := &Connectivity{}
	vid := func(i, j, k int) int { return i + (nx+1)*(j+(ny+1)*k) }
	for k := 0; k <= nz; k++ {
		for j := 0; j <= ny; j++ {
			for i := 0; i <= nx; i++ {
				c.Verts = append(c.Verts, [3]float64{float64(i), float64(j), float64(k)})
			}
		}
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				var tv [8]int
				for ci := 0; ci < 8; ci++ {
					tv[ci] = vid(i+ci&1, j+ci>>1&1, k+ci>>2&1)
				}
				c.TreeVerts = append(c.TreeVerts, tv)
			}
		}
	}
	if err := c.Finalize(); err != nil {
		panic(err)
	}
	return c
}

// CubedSphere builds the cubed-sphere shell decomposition of the paper's
// Fig. 12: each of the six cube faces ("caps") is split into n x n
// patches, each patch being one radially extruded tree — n=2 gives the
// paper's 24-tree forest. Vertex coordinates lie on the unit inner shell
// and outer shell of radius 2 (geometry is informational; topology is
// what matters for adaptivity).
func CubedSphere(n int) *Connectivity {
	c := &Connectivity{}
	type key [3]int32
	vids := map[key]int{}
	getV := func(p [3]float64) int {
		k := key{int32(math.Round(p[0] * 1e6)), int32(math.Round(p[1] * 1e6)), int32(math.Round(p[2] * 1e6))}
		if id, ok := vids[k]; ok {
			return id
		}
		id := len(c.Verts)
		vids[k] = id
		c.Verts = append(c.Verts, p)
		return id
	}
	// Each cap is parameterized by two tangent axes on the unit cube
	// surface; points are projected onto spheres of radius 1 and 2.
	caps := [6]struct {
		normal [3]float64
		ta, tb [3]float64
	}{
		{[3]float64{-1, 0, 0}, [3]float64{0, 1, 0}, [3]float64{0, 0, 1}},
		{[3]float64{1, 0, 0}, [3]float64{0, 0, 1}, [3]float64{0, 1, 0}},
		{[3]float64{0, -1, 0}, [3]float64{0, 0, 1}, [3]float64{1, 0, 0}},
		{[3]float64{0, 1, 0}, [3]float64{1, 0, 0}, [3]float64{0, 0, 1}},
		{[3]float64{0, 0, -1}, [3]float64{1, 0, 0}, [3]float64{0, 1, 0}},
		{[3]float64{0, 0, 1}, [3]float64{0, 1, 0}, [3]float64{1, 0, 0}},
	}
	surf := func(cap int, u, v float64, r float64) [3]float64 {
		cp := caps[cap]
		var p [3]float64
		for i := 0; i < 3; i++ {
			p[i] = cp.normal[i] + (2*u-1)*cp.ta[i] + (2*v-1)*cp.tb[i]
		}
		norm := math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
		for i := 0; i < 3; i++ {
			p[i] *= r / norm
		}
		return p
	}
	for cap := 0; cap < 6; cap++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				u0, u1 := float64(i)/float64(n), float64(i+1)/float64(n)
				v0, v1 := float64(j)/float64(n), float64(j+1)/float64(n)
				var tv [8]int
				// z-order: x = u, y = v, z = radial.
				us := [2]float64{u0, u1}
				vs := [2]float64{v0, v1}
				rs := [2]float64{1, 2}
				for ci := 0; ci < 8; ci++ {
					tv[ci] = getV(surf(cap, us[ci&1], vs[ci>>1&1], rs[ci>>2&1]))
				}
				c.TreeVerts = append(c.TreeVerts, tv)
			}
		}
	}
	if err := c.Finalize(); err != nil {
		panic(err)
	}
	return c
}

// TreeCoord maps a point in tree-reference coordinates (octant units) to
// physical space by trilinear interpolation of the tree corner vertices.
func (c *Connectivity) TreeCoord(tree int32, p [3]uint32) [3]float64 {
	xi := [3]float64{
		float64(p[0]) / float64(morton.RootLen),
		float64(p[1]) / float64(morton.RootLen),
		float64(p[2]) / float64(morton.RootLen),
	}
	var out [3]float64
	for ci := 0; ci < 8; ci++ {
		w := 1.0
		for a := 0; a < 3; a++ {
			if ci>>a&1 == 1 {
				w *= xi[a]
			} else {
				w *= 1 - xi[a]
			}
		}
		v := c.Verts[c.TreeVerts[tree][ci]]
		for a := 0; a < 3; a++ {
			out[a] += w * v[a]
		}
	}
	return out
}
