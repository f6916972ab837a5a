package fem

import (
	"math"

	"rhea/internal/mesh"
)

// ElemGeom carries the isoparametric geometry of one mapped trilinear
// hexahedral element: per quadrature point, the inverse Jacobian J^{-1}
// and the quadrature weight scaled by |det J| (the corner coordinates
// themselves stay in mesh.Mesh.X). Kernels that evaluate the element
// operator in reference coordinates (StokesApply) read those directly;
// consumers that want the physical shape-function gradients J^{-T} dN
// expand them with Grads. Every element matrix of the package is
// integrated from an ElemGeom: the multi-tree meshes' trilinear tree maps
// and radially projected shells give one per element, and an
// axis-aligned brick (J = diag(h)) is BrickElemGeom of its edge lengths.
type ElemGeom struct {
	Q [8]QJac // one entry per Quad8 point
	// Vol is the element volume (sum of the weights).
	Vol float64
	// Hmin is the shortest physical edge, used for SUPG parameters and
	// explicit stability limits.
	Hmin float64
	// H holds the directional physical extents — the mean length of the
	// four edges along each reference axis. On anisotropic elements
	// (shell meshes refine radially long before laterally) collapsing
	// these to Hmin makes SUPG parameters and advective time-step limits
	// needlessly conservative in the long directions.
	H [3]float64
}

// QJac is the Jacobian data of one quadrature point of a mapped element.
type QJac struct {
	Ji [3][3]float64 // J^{-1}: Ji[d][j] = dxi_d/dx_j
	W  float64       // quadrature weight x |det J|
}

// QGeom is the geometry of one quadrature point in physical gradients.
type QGeom struct {
	G [8][3]float64 // physical gradients of the 8 shape functions
	W float64       // quadrature weight x |det J|
}

// elemEdges lists the 12 corner pairs forming element edges.
var elemEdges = [12][2]int{
	{0, 1}, {2, 3}, {4, 5}, {6, 7},
	{0, 2}, {1, 3}, {4, 6}, {5, 7},
	{0, 4}, {1, 5}, {2, 6}, {3, 7},
}

// inverseJacobian computes J^{-1} and det J of the trilinear map at one
// reference point with shape-function reference gradients dN.
func inverseJacobian(X *[8][3]float64, dN *[8][3]float64) (Ji [3][3]float64, det float64) {
	var J [3][3]float64 // J[i][j] = dx_i/dxi_j
	for c := 0; c < 8; c++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				J[i][j] += X[c][i] * dN[c][j]
			}
		}
	}
	det = J[0][0]*(J[1][1]*J[2][2]-J[1][2]*J[2][1]) -
		J[0][1]*(J[1][0]*J[2][2]-J[1][2]*J[2][0]) +
		J[0][2]*(J[1][0]*J[2][1]-J[1][1]*J[2][0])
	inv := 1 / det
	Ji[0][0] = (J[1][1]*J[2][2] - J[1][2]*J[2][1]) * inv
	Ji[0][1] = (J[0][2]*J[2][1] - J[0][1]*J[2][2]) * inv
	Ji[0][2] = (J[0][1]*J[1][2] - J[0][2]*J[1][1]) * inv
	Ji[1][0] = (J[1][2]*J[2][0] - J[1][0]*J[2][2]) * inv
	Ji[1][1] = (J[0][0]*J[2][2] - J[0][2]*J[2][0]) * inv
	Ji[1][2] = (J[0][2]*J[1][0] - J[0][0]*J[1][2]) * inv
	Ji[2][0] = (J[1][0]*J[2][1] - J[1][1]*J[2][0]) * inv
	Ji[2][1] = (J[0][1]*J[2][0] - J[0][0]*J[2][1]) * inv
	Ji[2][2] = (J[0][0]*J[1][1] - J[0][1]*J[1][0]) * inv
	return Ji, det
}

// physGrads computes the physical gradients of the trilinear shape
// functions at one point from their reference gradients dN there,
//
//	G[c][i] = Ji[0][i]*dN[c][0] + Ji[1][i]*dN[c][1] + Ji[2][i]*dN[c][2],
//
// bit for bit. A corner's reference derivative along d is exactly the
// negation of its partner's across the edge parallel to d, so each
// product is formed once per edge (at the corner with bit d set) and
// negated for the other: 36 multiplications instead of 72.
func physGrads(Ji *[3][3]float64, dN *[8][3]float64, G *[8][3]float64) {
	for i := 0; i < 3; i++ {
		a, b, c := Ji[0][i], Ji[1][i], Ji[2][i]
		x0, x1, x2, x3 := a*dN[1][0], a*dN[3][0], a*dN[5][0], a*dN[7][0]
		y0, y1, y2, y3 := b*dN[2][1], b*dN[3][1], b*dN[6][1], b*dN[7][1]
		z0, z1, z2, z3 := c*dN[4][2], c*dN[5][2], c*dN[6][2], c*dN[7][2]
		G[0][i] = -x0 - y0 - z0
		G[1][i] = x0 - y1 - z1
		G[2][i] = -x1 + y0 - z2
		G[3][i] = x1 + y1 - z3
		G[4][i] = -x2 - y2 + z0
		G[5][i] = x2 - y3 + z1
		G[6][i] = -x3 + y2 + z2
		G[7][i] = x3 + y3 + z3
	}
}

// NewElemGeom precomputes the quadrature-point Jacobian data of a mapped
// element from its eight physical corner coordinates. Integration uses
// |det J|, so left-handed tree frames (the cubed-sphere caps are one
// example) integrate correctly; the physical gradients come from the
// signed inverse and are orientation-independent.
func NewElemGeom(X *[8][3]float64) *ElemGeom {
	g := new(ElemGeom)
	g.set(X)
	return g
}

// BrickElemGeom returns the geometry of an axis-aligned brick with edge
// lengths h, corners at the origin: a brick's element matrices are the
// mapped formulas evaluated on it. It depends only on h, so a mesh
// builds one per octree level (brickLevels).
func BrickElemGeom(h [3]float64) *ElemGeom {
	var X [8][3]float64
	for c := range X {
		for i := range X[c] {
			if c>>i&1 == 1 {
				X[c][i] = h[i]
			}
		}
	}
	return NewElemGeom(&X)
}

// set fills g with the geometry of the element with corners X.
func (g *ElemGeom) set(X *[8][3]float64) {
	*g = ElemGeom{}
	for qi := range Quad8 {
		q := &Quad8[qi]
		Ji, det := inverseJacobian(X, &q.dNdX)
		g.Q[qi] = QJac{Ji: Ji, W: q.W * math.Abs(det)}
		g.Vol += g.Q[qi].W
	}
	g.Hmin = math.Inf(1)
	for en, e := range elemEdges {
		var d2 float64
		for i := 0; i < 3; i++ {
			d := X[e[0]][i] - X[e[1]][i]
			d2 += d * d
		}
		l := math.Sqrt(d2)
		if l < g.Hmin {
			g.Hmin = l
		}
		g.H[en/4] += l / 4 // elemEdges lists 4 x-edges, then 4 y, then 4 z
	}
}

// Grads expands the element's quadrature-point geometry into physical
// shape-function gradients and weights, for the consumers that integrate
// with gradients (the assembled and multigrid element matrices, mapped
// transport). It allocates nothing; Q is the caller's scratch.
func (g *ElemGeom) Grads(Q *[8]QGeom) {
	for qi := range g.Q {
		physGrads(&g.Q[qi].Ji, &Quad8[qi].dNdX, &Q[qi].G)
		Q[qi].W = g.Q[qi].W
	}
}

// centerDN holds the reference shape-function gradients at the element
// center, the same for every element.
var centerDN = func() (dN [8][3]float64) {
	for c := range dN {
		dN[c] = ShapeGrad(c, [3]float64{0.5, 0.5, 0.5})
	}
	return dN
}()

// CenterGradients returns the physical shape-function gradients and
// |det J| of the trilinear map at the element center — the mapped
// counterpart of the constant midpoint gradients used by diagnostics and
// strain-rate sampling on axis-aligned meshes. Those sweeps run once per
// solve or cycle, so the center point is evaluated from the corners on
// each call rather than kept in ElemGeom.
func CenterGradients(X *[8][3]float64) (G [8][3]float64, det float64) {
	Ji, d := inverseJacobian(X, &centerDN)
	physGrads(&Ji, &centerDN, &G)
	return G, math.Abs(d)
}

// CenterPoint returns the physical point the trilinear map takes the
// element center to: the mean of the eight corners, summed in corner
// order.
func CenterPoint(X *[8][3]float64) (x [3]float64) {
	for c := 0; c < 8; c++ {
		for i := 0; i < 3; i++ {
			x[i] += X[c][i] / 8
		}
	}
	return x
}

// StiffnessGeom returns the scalar diffusion element matrix
// K[a][b] = coef * Integral grad(phi_a) . grad(phi_b) dV.
func StiffnessGeom(g *ElemGeom, coef float64) [8][8]float64 {
	K := stiffnessGeomSym(g, coef)
	return K.Full()
}

// stiffnessGeomSym is StiffnessGeom packed: the upper triangle, the only
// half it integrates.
func stiffnessGeomSym(g *ElemGeom, coef float64) SymKernel {
	var Q [8]QGeom
	g.Grads(&Q)
	var K SymKernel
	for qi := range Q {
		q := &Q[qi]
		w := coef * q.W
		k := 0
		for a := 0; a < 8; a++ {
			for b := a; b < 8; b++ {
				s := q.G[a][0]*q.G[b][0] + q.G[a][1]*q.G[b][1] + q.G[a][2]*q.G[b][2]
				K[k] += w * s
				k++
			}
		}
	}
	return K
}

// MassGeom returns the consistent mass matrix scaled by coef.
func MassGeom(g *ElemGeom, coef float64) [8][8]float64 {
	var M [8][8]float64
	for qi := range g.Q {
		w := coef * g.Q[qi].W
		N := &Quad8[qi].N
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				M[a][b] += w * N[a] * N[b]
			}
		}
	}
	return M
}

// LumpedMassGeom is the row-sum lumped mass vector of MassGeom,
// computed as LumpedMassQ computes it.
func LumpedMassGeom(g *ElemGeom, coef float64) [8]float64 {
	var m [8]float64
	for qi := range g.Q {
		w := coef * g.Q[qi].W
		N := &Quad8[qi].N
		for a := 0; a < 8; a++ {
			m[a] += w * N[a]
		}
	}
	return m
}

// ViscousGeom returns the 24x24 viscous element matrix for the
// variable-viscosity Stokes operator in strain-rate form:
// A[3a+i][3b+j] = eta * Integral (grad(phi_a).grad(phi_b) delta_ij +
// d_j phi_a d_i phi_b) dV, i.e. the discretization of
// -div(eta (grad u + grad u^T)) with constant element viscosity eta.
func ViscousGeom(g *ElemGeom, eta float64) [24][24]float64 {
	var Q [8]QGeom
	g.Grads(&Q)
	var A [24][24]float64
	for qi := range Q {
		q := &Q[qi]
		w := eta * q.W
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				dot := q.G[a][0]*q.G[b][0] + q.G[a][1]*q.G[b][1] + q.G[a][2]*q.G[b][2]
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						v := q.G[a][j] * q.G[b][i]
						if i == j {
							v += dot
						}
						A[3*a+i][3*b+j] += w * v
					}
				}
			}
		}
	}
	return A
}

// DivergenceGeom returns the 8x24 pressure-velocity coupling
// B[a][3b+j] = -Integral phi_a d_j phi_b dV (discrete divergence tested
// against the pressure basis).
func DivergenceGeom(g *ElemGeom) [8][24]float64 {
	var Q [8]QGeom
	g.Grads(&Q)
	var B [8][24]float64
	for qi := range Q {
		q := &Q[qi]
		N := &Quad8[qi].N
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				for j := 0; j < 3; j++ {
					B[a][3*b+j] -= q.W * N[a] * q.G[b][j]
				}
			}
		}
	}
	return B
}

// StabilizationGeom returns the Dohrmann–Bochev polynomial pressure
// projection stabilization C = (1/eta) (M - v v^T / V), where M is the
// pressure mass matrix, v its row sums, and V the element volume. C
// annihilates element-constant pressures and penalizes the spurious
// modes of the equal-order pair.
func StabilizationGeom(g *ElemGeom, eta float64) [8][8]float64 {
	M := MassGeom(g, 1)
	var v [8]float64
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			v[a] += M[a][b]
		}
	}
	var C [8][8]float64
	inv := 1.0 / eta
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			C[a][b] = inv * (M[a][b] - v[a]*v[b]/g.Vol)
		}
	}
	return C
}

// ElemGeoms returns the per-element quadrature geometry of a mapped
// mesh, computing it on first use into one slab and caching it on the
// mesh: every consumer of per-element Jacobians at the quadrature points
// (matrix-free kernels, multigrid kernels, the Schur diagonal,
// transport) shares one set of Jacobian inversions per mesh. Returns nil
// for axis-aligned meshes.
func ElemGeoms(m *mesh.Mesh) []ElemGeom {
	if m.X == nil {
		return nil
	}
	if g, ok := m.GeomCache.([]ElemGeom); ok {
		return g
	}
	g := make([]ElemGeom, len(m.Leaves))
	for ei := range g {
		g[ei].set(&m.X[ei])
	}
	m.GeomCache = g
	return g
}

// ElemGeomOf returns the table of the local elements' quadrature
// geometries, 8 B per element: entry ei points into the mesh's cached
// ElemGeoms on mapped meshes, and on axis-aligned ones at the one
// BrickElemGeom of its octree level, shared by the level's elements.
func ElemGeomOf(m *mesh.Mesh, dom Domain) []*ElemGeom {
	tab := make([]*ElemGeom, len(m.Leaves))
	if geos := ElemGeoms(m); geos != nil {
		for ei := range tab {
			tab[ei] = &geos[ei]
		}
		return tab
	}
	geo, idx := brickLevels(m, dom)
	for ei, k := range idx {
		tab[ei] = geo[k]
	}
	return tab
}

// brickLevels returns the geometry of an axis-aligned mesh's bricks, one
// BrickElemGeom per octree level present (element size depends only on
// the level), and idx[ei], the index of element ei's.
func brickLevels(m *mesh.Mesh, dom Domain) (geo []*ElemGeom, idx []int32) {
	idx = make([]int32, len(m.Leaves))
	byLevel := map[uint8]int32{}
	for ei, leaf := range m.Leaves {
		k, ok := byLevel[leaf.Level]
		if !ok {
			k = int32(len(geo))
			byLevel[leaf.Level] = k
			geo = append(geo, BrickElemGeom(dom.ElemSize(leaf)))
		}
		idx[ei] = k
	}
	return geo, idx
}

// NodeCoord returns the physical coordinates of owned node i: the mapped
// coordinates on forest meshes, the axis-aligned Domain scaling
// otherwise.
func NodeCoord(m *mesh.Mesh, dom Domain, i int) [3]float64 {
	if m.OwnedX != nil {
		return m.OwnedX[i]
	}
	return dom.Coord(m.OwnedPos[i])
}

// ElemCornerCoords returns the physical coordinates of the eight corners
// of local element ei.
func ElemCornerCoords(m *mesh.Mesh, dom Domain, ei int) [8][3]float64 {
	if m.X != nil {
		return m.X[ei]
	}
	var out [8][3]float64
	leaf := m.Leaves[ei]
	h := leaf.Len()
	for c := 0; c < 8; c++ {
		p := [3]uint32{leaf.X, leaf.Y, leaf.Z}
		if c&1 != 0 {
			p[0] += h
		}
		if c&2 != 0 {
			p[1] += h
		}
		if c&4 != 0 {
			p[2] += h
		}
		out[c] = dom.Coord(p)
	}
	return out
}
