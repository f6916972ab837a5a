package fem

import (
	"math"

	"rhea/internal/mesh"
)

// ElemGeom carries the isoparametric geometry of one mapped trilinear
// hexahedral element: physical corner coordinates plus, per quadrature
// point, the inverse Jacobian J^{-1} and the quadrature weight scaled by
// |det J|. Kernels that evaluate the element operator in reference
// coordinates (StokesApply) read those directly; consumers that want the
// physical shape-function gradients J^{-T} dN expand them with Grads. The
// brick kernels are the special case J = diag(h); these general kernels
// serve multi-tree meshes with trilinear tree maps and radially projected
// shells.
type ElemGeom struct {
	X [8][3]float64 // corner coordinates (z-order)
	Q [8]QJac       // one entry per Quad8 point
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
	// Center-point data for midpoint sampling (strain rates,
	// diagnostics): physical shape gradients, |det J| and the physical
	// center, cached here so per-iteration hot paths never re-invert the
	// Jacobian.
	Gc     [8][3]float64
	DetC   float64
	Center [3]float64
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
	g := &ElemGeom{X: *X}
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
	g.Gc, g.DetC = CenterGradients(X)
	for c := 0; c < 8; c++ {
		for i := 0; i < 3; i++ {
			g.Center[i] += X[c][i] / 8
		}
	}
	return g
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

// CenterGradients returns the physical shape-function gradients and
// |det J| of the trilinear map at the element center — the mapped
// counterpart of the constant midpoint gradients used by diagnostics and
// strain-rate sampling on axis-aligned meshes.
func CenterGradients(X *[8][3]float64) (G [8][3]float64, det float64) {
	xi := [3]float64{0.5, 0.5, 0.5}
	var dN [8][3]float64
	for c := 0; c < 8; c++ {
		dN[c] = ShapeGrad(c, xi)
	}
	Ji, d := inverseJacobian(X, &dN)
	physGrads(&Ji, &dN, &G)
	return G, math.Abs(d)
}

// StiffnessGeom is StiffnessBrick on a mapped element.
func StiffnessGeom(g *ElemGeom, coef float64) [8][8]float64 {
	var Q [8]QGeom
	g.Grads(&Q)
	var K [8][8]float64
	for qi := range Q {
		q := &Q[qi]
		w := coef * q.W
		for a := 0; a < 8; a++ {
			for b := a; b < 8; b++ {
				s := q.G[a][0]*q.G[b][0] + q.G[a][1]*q.G[b][1] + q.G[a][2]*q.G[b][2]
				K[a][b] += w * s
			}
		}
	}
	for a := 0; a < 8; a++ {
		for b := 0; b < a; b++ {
			K[a][b] = K[b][a]
		}
	}
	return K
}

// MassGeom is MassBrick on a mapped element.
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

// ViscousGeom is ViscousBrick on a mapped element: the strain-rate form
// of the variable-viscosity vector Laplacian with constant viscosity eta.
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

// DivergenceGeom is DivergenceBrick on a mapped element.
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

// StabilizationGeom is StabilizationBrick on a mapped element.
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

// NewStokesKernelsGeom precomputes the unit-viscosity coupled Stokes
// element matrices of a mapped element; the result plugs into the same
// fused StokesKernels.Apply as the brick path. It is the tabulated form
// of ElemGeom.StokesApply: the assembled path scales its matrices, and
// the point kernel's tests compare against its Apply.
func NewStokesKernelsGeom(g *ElemGeom) *StokesKernels {
	return &StokesKernels{
		H:  g.H,
		Av: ViscousGeom(g, 1),
		Bd: DivergenceGeom(g),
		Cs: StabilizationGeom(g, 1),
		M8: MassGeom(g, 1),
	}
}

// ElemGeoms returns the per-element quadrature geometry of a mapped
// mesh, computing it on first use and caching it on the mesh: every
// consumer of per-element Jacobians (matrix-free kernels, multigrid
// level kernels, Schur plans, transport) shares one set of Jacobian
// inversions per mesh. Returns nil for axis-aligned meshes.
func ElemGeoms(m *mesh.Mesh) []*ElemGeom {
	if m.X == nil {
		return nil
	}
	if g, ok := m.GeomCache.([]*ElemGeom); ok {
		return g
	}
	g := make([]*ElemGeom, len(m.Leaves))
	for ei := range m.Leaves {
		g[ei] = NewElemGeom(&m.X[ei])
	}
	m.GeomCache = g
	return g
}

// StokesKernelsFor returns the per-element tabulated unit-viscosity
// Stokes kernels of a mesh: for axis-aligned meshes one kernel per octree
// level (aliased — element size depends only on the level), shared by the
// matrix-free operator and the assembled path; for mapped meshes one
// isoparametric kernel per element, which only the assembled oracle path
// asks for — the matrix-free operator applies ElemGeom.StokesApply from
// the same ElemGeoms instead and stores nothing per element.
func StokesKernelsFor(m *mesh.Mesh, dom Domain) []*StokesKernels {
	kern := make([]*StokesKernels, len(m.Leaves))
	if g := ElemGeoms(m); g != nil {
		for ei := range m.Leaves {
			kern[ei] = NewStokesKernelsGeom(g[ei])
		}
		return kern
	}
	byLevel := map[uint8]*StokesKernels{}
	for ei, leaf := range m.Leaves {
		k, ok := byLevel[leaf.Level]
		if !ok {
			k = NewStokesKernels(dom.ElemSize(leaf))
			byLevel[leaf.Level] = k
		}
		kern[ei] = k
	}
	return kern
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
