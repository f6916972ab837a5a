package fem

import (
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
)

// Domain maps the unit reference cube of the octree onto a physical
// axis-aligned box (the paper's regional runs use 8 x 4 x 1).
type Domain struct {
	Box [3]float64
}

// UnitDomain is the unit cube.
var UnitDomain = Domain{Box: [3]float64{1, 1, 1}}

// Coord converts an integer node position to physical coordinates.
func (d Domain) Coord(p [3]uint32) [3]float64 {
	s := 1.0 / float64(morton.RootLen)
	return [3]float64{
		float64(p[0]) * s * d.Box[0],
		float64(p[1]) * s * d.Box[1],
		float64(p[2]) * s * d.Box[2],
	}
}

// CoordHalf converts a half-unit (Q2 layer) node position to physical
// coordinates. Both scale factors are exact powers of two, so at even
// positions the result is bitwise identical to Coord of the vertex.
func (d Domain) CoordHalf(p2 [3]uint32) [3]float64 {
	s := 0.5 / float64(morton.RootLen)
	return [3]float64{
		float64(p2[0]) * s * d.Box[0],
		float64(p2[1]) * s * d.Box[1],
		float64(p2[2]) * s * d.Box[2],
	}
}

// ElemSize returns the physical edge lengths of an element.
func (d Domain) ElemSize(o morton.Octant) [3]float64 {
	s := float64(o.Len()) / float64(morton.RootLen)
	return [3]float64{s * d.Box[0], s * d.Box[1], s * d.Box[2]}
}

// ElemCenter returns the physical center of an element.
func (d Domain) ElemCenter(o morton.Octant) [3]float64 {
	h := d.ElemSize(o)
	c := d.Coord([3]uint32{o.X, o.Y, o.Z})
	for i := 0; i < 3; i++ {
		c[i] += h[i] / 2
	}
	return c
}

// ScalarBC prescribes Dirichlet data: it returns (value, true) where the
// scalar field is constrained, given the physical node position.
type ScalarBC func(x [3]float64) (float64, bool)

// NoBC imposes no Dirichlet constraints.
func NoBC(x [3]float64) (float64, bool) { return 0, false }

// BCData carries the Dirichlet flags and values of every node this rank
// references, indexed by node slot (mesh.Mesh.GX), used during assembly
// and by the matrix-free level operators.
type BCData struct {
	Flag []float64 // slot -> 1 if constrained
	Val  []float64 // slot -> boundary value
}

// IsSet reports whether the node in a slot is constrained; a nil BCData
// constrains nothing.
func (b *BCData) IsSet(slot int32) bool { return b != nil && b.Flag[slot] != 0 }

// GatherBC evaluates every bc at the owned nodes — at their mapped
// physical coordinates on forest meshes — and fetches the ghosts' flags
// and values from their owners, all conditions in one exchange
// (collective). The result is aligned with bcs.
func GatherBC(m *mesh.Mesh, dom Domain, bcs ...ScalarBC) []*BCData {
	n, ns := m.NumOwned, m.NSlots()
	out := make([]*BCData, len(bcs))
	var owned, ghost [][]float64
	for k, bc := range bcs {
		b := &BCData{Flag: make([]float64, ns), Val: make([]float64, ns)}
		for i := 0; i < n; i++ {
			if v, is := bc(NodeCoord(m, dom, i)); is {
				b.Flag[i], b.Val[i] = 1, v
			}
		}
		owned = append(owned, b.Flag[:n], b.Val[:n])
		ghost = append(ghost, b.Flag[n:], b.Val[n:])
		out[k] = b
	}
	m.GX.GatherMulti(owned, ghost)
	return out
}

// AssembleScalar assembles the global operator and right-hand side for a
// scalar problem from per-element matrices, applying hanging-node
// constraints at the element level and eliminating Dirichlet rows/columns
// symmetrically (collective).
//
// elemMat and elemSrc are called once per local element with its index
// and physical size. Either may be nil (zero contribution).
func AssembleScalar(
	m *mesh.Mesh, dom Domain,
	elemMat func(ei int, h [3]float64) [8][8]float64,
	elemSrc func(ei int, h [3]float64) [8]float64,
	bc ScalarBC,
) (*la.Mat, *la.Vec, *BCData) {
	return AssembleScalarWithBC(m, dom, elemMat, elemSrc, GatherBC(m, dom, bc)[0])
}

// AssembleScalarWithBC is AssembleScalar with the Dirichlet data already
// gathered (collective). Callers that re-assemble repeatedly on one mesh
// — e.g. the multigrid coarse level on every viscosity refresh — cache
// the BCData and skip the per-assembly gather.
func AssembleScalarWithBC(
	m *mesh.Mesh, dom Domain,
	elemMat func(ei int, h [3]float64) [8][8]float64,
	elemSrc func(ei int, h [3]float64) [8]float64,
	bcd *BCData,
) (*la.Mat, *la.Vec, *BCData) {
	l := m.Layout()
	A := la.NewMat(l)
	bb := la.NewVecBuilder(l)

	for ei, leaf := range m.Leaves {
		h := dom.ElemSize(leaf)
		var K [8][8]float64
		if elemMat != nil {
			K = elemMat(ei, h)
		}
		var F [8]float64
		if elemSrc != nil {
			F = elemSrc(ei, h)
		}
		cs := &m.Corners[ei]
		for a := 0; a < 8; a++ {
			for ia := 0; ia < int(cs[a].N); ia++ {
				sa, wa := cs[a].Slot[ia], cs[a].W[ia]
				if bcd.IsSet(sa) {
					continue // identity row, set below
				}
				ga := m.GID(sa)
				bb.Add(ga, wa*F[a])
				if elemMat == nil {
					continue
				}
				for b := 0; b < 8; b++ {
					for ib := 0; ib < int(cs[b].N); ib++ {
						sb, wb := cs[b].Slot[ib], cs[b].W[ib]
						v := wa * wb * K[a][b]
						if bcd.IsSet(sb) {
							bb.Add(ga, -v*bcd.Val[sb])
						} else {
							A.AddValue(ga, m.GID(sb), v)
						}
					}
				}
			}
		}
	}
	// Identity rows for owned Dirichlet nodes.
	for i := 0; i < m.NumOwned; i++ {
		if g := m.Offset + int64(i); bcd.IsSet(int32(i)) {
			A.AddValue(g, g, 1)
		}
	}
	A.Assemble()
	b := bb.Finalize()
	for i := 0; i < m.NumOwned; i++ {
		if bcd.IsSet(int32(i)) {
			b.Data[i] = bcd.Val[i]
		}
	}
	return A, b, bcd
}

// UnitStiffnessKernels returns the unit-viscosity scalar stiffness
// matrices of the local elements, packed: kern holds the distinct
// matrices in one flat array and kern[idx[ei]] is element ei's. For
// axis-aligned meshes that is one brick per octree level (element size
// depends only on the level), for mapped forest meshes one
// isoparametric matrix per element, in element order. Viscosity-refresh
// paths scale these cached kernels instead of re-running quadrature per
// element, and the multigrid level operators stream them.
func UnitStiffnessKernels(m *mesh.Mesh, dom Domain) (kern [][8][8]float64, idx []int32) {
	idx = make([]int32, len(m.Leaves))
	if g := ElemGeoms(m); g != nil {
		kern = make([][8][8]float64, len(m.Leaves))
		for ei := range m.Leaves {
			kern[ei] = StiffnessGeom(g[ei], 1)
			idx[ei] = int32(ei)
		}
		return kern, idx
	}
	byLevel := map[uint8]int32{}
	for ei, leaf := range m.Leaves {
		k, ok := byLevel[leaf.Level]
		if !ok {
			k = int32(len(kern))
			byLevel[leaf.Level] = k
			kern = append(kern, StiffnessBrick(dom.ElemSize(leaf), 1))
		}
		idx[ei] = k
	}
	return kern, idx
}
