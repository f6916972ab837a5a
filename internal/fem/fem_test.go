package fem

import (
	"math"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// unitBox is the one-tree connectivity of the unit cube.
var unitBox = forest.BrickConnectivity(1, 1, 1)

func TestShapePartitionOfUnity(t *testing.T) {
	pts := [][3]float64{{0.3, 0.7, 0.1}, {0, 0, 0}, {1, 1, 1}, {0.5, 0.5, 0.5}}
	for _, xi := range pts {
		var s float64
		var g [3]float64
		for c := 0; c < 8; c++ {
			s += ShapeValue(c, xi)
			gr := ShapeGrad(c, xi)
			for d := 0; d < 3; d++ {
				g[d] += gr[d]
			}
		}
		if math.Abs(s-1) > 1e-14 {
			t.Errorf("shapes at %v sum to %v", xi, s)
		}
		for d := 0; d < 3; d++ {
			if math.Abs(g[d]) > 1e-14 {
				t.Errorf("shape gradients at %v sum to %v in axis %d", xi, g[d], d)
			}
		}
	}
}

func TestShapeKroneckerProperty(t *testing.T) {
	for c := 0; c < 8; c++ {
		for k := 0; k < 8; k++ {
			corner := [3]float64{float64(k & 1), float64(k >> 1 & 1), float64(k >> 2 & 1)}
			v := ShapeValue(c, corner)
			want := 0.0
			if c == k {
				want = 1.0
			}
			if math.Abs(v-want) > 1e-14 {
				t.Errorf("N_%d at corner %d = %v", c, k, v)
			}
		}
	}
}

func TestShapeGradFiniteDifference(t *testing.T) {
	xi := [3]float64{0.37, 0.61, 0.23}
	const eps = 1e-6
	for c := 0; c < 8; c++ {
		g := ShapeGrad(c, xi)
		for d := 0; d < 3; d++ {
			xp, xm := xi, xi
			xp[d] += eps
			xm[d] -= eps
			fd := (ShapeValue(c, xp) - ShapeValue(c, xm)) / (2 * eps)
			if math.Abs(fd-g[d]) > 1e-8 {
				t.Errorf("grad N_%d axis %d: %v vs fd %v", c, d, g[d], fd)
			}
		}
	}
}

// elemCase is one element of the table the element-matrix property
// tests run over: the corner coordinates (for the linear test fields),
// the geometry the matrices are integrated on and the element volume.
type elemCase struct {
	name string
	X    [8][3]float64
	g    *ElemGeom
	vol  float64
}

// elemCases returns an anisotropic axis-aligned brick, built as a box
// mesh builds it (BrickElemGeom), and a sheared, non-affine mapped
// element: every element matrix has one formula, and each property must
// hold on both geometries.
func elemCases() []elemCase {
	h := [3]float64{0.5, 0.25, 1}
	var B [8][3]float64
	for c := range B {
		for i := range B[c] {
			if c>>i&1 == 1 {
				B[c][i] = h[i]
			}
		}
	}
	S := shearedHex(1)
	gs := NewElemGeom(&S) // the 2x2x2 rule integrates det J exactly
	return []elemCase{{"brick", B, BrickElemGeom(h), h[0] * h[1] * h[2]}, {"sheared", S, gs, gs.Vol}}
}

// quad24 returns u^T A v for 24-vectors, and the sum of the absolute
// values of its terms (the scale its rounding error is measured against).
func quad24(A *[24][24]float64, u, v *[24]float64) (e, scale float64) {
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			e += u[i] * A[i][j] * v[j]
			scale += math.Abs(u[i] * A[i][j] * v[j])
		}
	}
	return e, scale
}

func TestStiffnessProperties(t *testing.T) {
	for _, ec := range elemCases() {
		K := StiffnessGeom(ec.g, 3)
		for a := 0; a < 8; a++ {
			var rs float64
			for b := 0; b < 8; b++ {
				rs += K[a][b]
				if math.Abs(K[a][b]-K[b][a]) > 1e-13 {
					t.Errorf("%s: asymmetric stiffness at %d,%d", ec.name, a, b)
				}
			}
			if math.Abs(rs) > 1e-12 {
				t.Errorf("%s: row %d sum %v (constants not in nullspace)", ec.name, a, rs)
			}
			if K[a][a] <= 0 {
				t.Errorf("%s: diagonal %d not positive", ec.name, a)
			}
		}
		// Linear field u = x (interpolated exactly by the isoparametric
		// element): grad u = (1,0,0), energy = coef * vol = 3 vol.
		var u [8]float64
		for c := 0; c < 8; c++ {
			u[c] = ec.X[c][0]
		}
		var e float64
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				e += u[a] * K[a][b] * u[b]
			}
		}
		if vol := ec.vol; math.Abs(e-3*vol) > 1e-12*vol {
			t.Errorf("%s: energy of linear field = %v, want %v", ec.name, e, 3*vol)
		}
	}
}

func TestMassMatrixIntegratesVolume(t *testing.T) {
	for _, ec := range elemCases() {
		vol := ec.vol
		M := MassGeom(ec.g, 1)
		var s float64
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				s += M[a][b]
			}
		}
		if math.Abs(s-vol) > 1e-13 {
			t.Errorf("%s: mass total %v want %v", ec.name, s, vol)
		}
		lm := LumpedMassGeom(ec.g, 1)
		var ls float64
		for _, v := range lm {
			ls += v
		}
		if math.Abs(ls-vol) > 1e-13 {
			t.Errorf("%s: lumped mass total %v want %v", ec.name, ls, vol)
		}
	}
}

func TestViscousProperties(t *testing.T) {
	for _, ec := range elemCases() {
		A := ViscousGeom(ec.g, 2)
		// Symmetry.
		for i := 0; i < 24; i++ {
			for j := 0; j < 24; j++ {
				if math.Abs(A[i][j]-A[j][i]) > 1e-12 {
					t.Fatalf("%s: viscous block asymmetric at %d,%d", ec.name, i, j)
				}
			}
		}
		// Rigid translations produce zero energy.
		for d := 0; d < 3; d++ {
			var u [24]float64
			for c := 0; c < 8; c++ {
				u[3*c+d] = 1
			}
			if e, scale := quad24(&A, &u, &u); math.Abs(e) > 1e-14*scale {
				t.Errorf("%s: translation %d has energy %v", ec.name, d, e)
			}
		}
		// Rigid rotation about z: u = (-y, x, 0) gives zero strain energy.
		var u [24]float64
		for c := 0; c < 8; c++ {
			u[3*c+0] = -ec.X[c][1]
			u[3*c+1] = ec.X[c][0]
		}
		if e, scale := quad24(&A, &u, &u); math.Abs(e) > 1e-14*scale {
			t.Errorf("%s: rotation has strain energy %v", ec.name, e)
		}
	}
}

func TestDivergenceOnLinearField(t *testing.T) {
	for _, ec := range elemCases() {
		B := DivergenceGeom(ec.g)
		// u = (x, 0, 0): div u = 1; sum_a B[a][.]u = -integral phi_a * 1.
		var u [24]float64
		for c := 0; c < 8; c++ {
			u[3*c] = ec.X[c][0]
		}
		vol := ec.vol
		var total float64
		for a := 0; a < 8; a++ {
			var s float64
			for j := 0; j < 24; j++ {
				s += B[a][j] * u[j]
			}
			total += s
		}
		if math.Abs(total+vol) > 1e-13*math.Max(vol, 1) {
			t.Errorf("%s: sum of divergence rows = %v, want %v", ec.name, total, -vol)
		}
		// Divergence-free rotation: all rows zero.
		var w [24]float64
		for c := 0; c < 8; c++ {
			w[3*c+0] = -ec.X[c][1]
			w[3*c+1] = ec.X[c][0]
		}
		for a := 0; a < 8; a++ {
			var s float64
			for j := 0; j < 24; j++ {
				s += B[a][j] * w[j]
			}
			if math.Abs(s) > 1e-13*math.Max(vol, 1) {
				t.Errorf("%s: row %d on div-free field: %v", ec.name, a, s)
			}
		}
	}
}

func TestStabilizationAnnihilatesConstants(t *testing.T) {
	for _, ec := range elemCases() {
		C := StabilizationGeom(ec.g, 4)
		for a := 0; a < 8; a++ {
			var rs float64
			for b := 0; b < 8; b++ {
				rs += C[a][b]
				if math.Abs(C[a][b]-C[b][a]) > 1e-14 {
					t.Errorf("%s: stabilization asymmetric", ec.name)
				}
			}
			if math.Abs(rs) > 1e-14 {
				t.Errorf("%s: stabilization row %d sum %v", ec.name, a, rs)
			}
		}
		// PSD: x'Cx >= 0 for a few vectors.
		for trial := 0; trial < 8; trial++ {
			var x [8]float64
			for i := range x {
				x[i] = math.Sin(float64(trial*8 + i))
			}
			var e float64
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					e += x[a] * C[a][b] * x[b]
				}
			}
			if e < -1e-12 {
				t.Errorf("%s: stabilization indefinite: %v", ec.name, e)
			}
		}
	}
}

func TestAdvectionBrickSkewOnConstantVel(t *testing.T) {
	h := [3]float64{1, 1, 1}
	var u [8][3]float64
	for c := 0; c < 8; c++ {
		u[c] = [3]float64{1, 0.5, -0.25}
	}
	G := AdvectionBrick(h, &u)
	// Constant test function row sum: integral 1*(u.grad phi_b) over all b
	// of a constant field is zero (constants have no gradient).
	for a := 0; a < 8; a++ {
		var s float64
		for b := 0; b < 8; b++ {
			s += G[a][b]
		}
		if math.Abs(s) > 1e-13 {
			t.Errorf("advection of constant is %v", s)
		}
	}
}

func TestSUPGTau(t *testing.T) {
	h := [3]float64{0.1, 0.1, 0.1}
	// Advection dominated: tau = h/(2|u|).
	if tau := SUPGTau(h, 10, 1e-6); math.Abs(tau-0.005) > 1e-9 {
		t.Errorf("advective tau %v", tau)
	}
	// Diffusion dominated: tau = h^2/(12 kappa).
	if tau := SUPGTau(h, 1e-9, 1.0); math.Abs(tau-0.1*0.1/12) > 1e-9 {
		t.Errorf("diffusive tau %v", tau)
	}
	if tau := SUPGTau(h, 0, 1); tau != 0 {
		t.Errorf("zero velocity tau %v", tau)
	}
}

// shear maps the unit cube affinely onto the parallelepiped the mapped
// Poisson tests run on; unshear is its inverse.
func shear(x [3]float64) [3]float64 {
	return [3]float64{x[0] + 0.3*x[1] + 0.1*x[2], x[1] + 0.2*x[2], x[2]}
}

func unshear(y [3]float64) [3]float64 {
	z := y[2]
	v := y[1] - 0.2*z
	return [3]float64{y[0] - 0.3*v - 0.1*z, v, z}
}

// shearGeometry maps a one-tree forest on the unit cube through shear.
type shearGeometry struct{}

func (shearGeometry) NodeCoord(_ int32, p [3]uint32) [3]float64 { return shear(UnitDomain.Coord(p)) }

// poissonMeshes is the table the Poisson tests run over: the unit box
// (one brick geometry per octree level) and the sheared cube (one
// geometry per element), with the physical boundary of each.
var poissonMeshes = []struct {
	name     string
	geom     mesh.Geometry
	boundary func(x [3]float64) bool
}{
	{"box", nil, func(x [3]float64) bool {
		return x[0] == 0 || x[1] == 0 || x[2] == 0 || x[0] == 1 || x[1] == 1 || x[2] == 1
	}},
	{"sheared", shearGeometry{}, func(x [3]float64) bool {
		r := unshear(x)
		for _, v := range r {
			if math.Abs(v) < 1e-12 || math.Abs(v-1) < 1e-12 {
				return true
			}
		}
		return false
	}},
}

// Patch test: on an adapted mesh with hanging nodes, the FEM solution of
// Laplace's equation with linear Dirichlet data must reproduce the linear
// function to solver accuracy. This exercises assembly, hanging-node
// constraints, boundary elimination, CG and the ghost exchange together.
func TestPoissonPatchTest(t *testing.T) {
	lin := func(x [3]float64) float64 { return 2*x[0] - 3*x[1] + 0.5*x[2] + 1 }
	for _, pm := range poissonMeshes {
		for _, p := range []int{1, 4} {
			sim.Run(p, func(r *sim.Rank) {
				tr := forest.New(r, unitBox, 1)
				tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
				tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
				tr.Balance()
				tr.Partition()
				m := mesh.Extract(tr, pm.geom)
				dom := UnitDomain
				bc := func(x [3]float64) (float64, bool) {
					if pm.boundary(x) {
						return lin(x), true
					}
					return 0, false
				}
				geo := ElemGeomOf(m, dom)
				A, b, _ := AssembleScalar(m, dom,
					func(ei int, _ [3]float64) [8][8]float64 { return StiffnessGeom(geo[ei], 1) },
					nil, bc)
				x := la.NewVec(m.Layout())
				res := krylov.CG(A, krylov.Jacobi(A), b, x, 1e-12, 2000)
				if !res.Converged {
					t.Errorf("%s p=%d: CG failed (res %v)", pm.name, p, res.Residual)
					return
				}
				for i := range x.Data {
					xi := NodeCoord(m, dom, i)
					if want := lin(xi); math.Abs(x.Data[i]-want) > 1e-7 {
						t.Errorf("%s p=%d: node %v: %v want %v", pm.name, p, xi, x.Data[i], want)
						return
					}
				}
			})
		}
	}
}

// Manufactured-solution convergence: -Laplace u = f with
// u = sin(pi x) sin(pi y) sin(pi z) and u's values as Dirichlet data; the
// L-infinity nodal error must shrink by roughly 4x per uniform
// refinement (second-order elements).
func TestPoissonConvergence(t *testing.T) {
	exact := func(x [3]float64) float64 {
		return math.Sin(math.Pi*x[0]) * math.Sin(math.Pi*x[1]) * math.Sin(math.Pi*x[2])
	}
	for _, pm := range poissonMeshes {
		errAt := func(level uint8) float64 {
			var maxErr float64
			sim.Run(2, func(r *sim.Rank) {
				tr := forest.New(r, unitBox, level)
				m := mesh.Extract(tr, pm.geom)
				dom := UnitDomain
				bc := func(x [3]float64) (float64, bool) {
					if pm.boundary(x) {
						return exact(x), true
					}
					return 0, false
				}
				geo := ElemGeomOf(m, dom)
				A, b, _ := AssembleScalar(m, dom,
					func(ei int, _ [3]float64) [8][8]float64 { return StiffnessGeom(geo[ei], 1) },
					func(ei int, _ [3]float64) [8]float64 {
						// Consistent load: f = 3 pi^2 u at corners, lumped.
						var F [8]float64
						lm := LumpedMassGeom(geo[ei], 1)
						X := ElemCornerCoords(m, dom, ei)
						for c := 0; c < 8; c++ {
							F[c] = lm[c] * 3 * math.Pi * math.Pi * exact(X[c])
						}
						return F
					}, bc)
				x := la.NewVec(m.Layout())
				if res := krylov.CG(A, krylov.Jacobi(A), b, x, 1e-12, 4000); !res.Converged {
					t.Errorf("%s: CG failed at level %d", pm.name, level)
					return
				}
				var e float64
				for i := range x.Data {
					if d := math.Abs(x.Data[i] - exact(NodeCoord(m, dom, i))); d > e {
						e = d
					}
				}
				ge := r.Allreduce(e, sim.OpMax)
				if r.ID() == 0 {
					maxErr = ge
				}
			})
			return maxErr
		}
		e2 := errAt(2)
		e3 := errAt(3)
		ratio := e2 / e3
		t.Logf("%s: e2=%.3g e3=%.3g ratio %.2f", pm.name, e2, e3, ratio)
		if ratio < 2.5 {
			t.Errorf("%s: convergence ratio %v (e2=%v e3=%v), want ~4", pm.name, ratio, e2, e3)
		}
	}
}

// cornerPosFEM mirrors mesh corner numbering for test use.
func cornerPosFEM(o morton.Octant, c int) [3]uint32 {
	h := o.Len()
	p := [3]uint32{o.X, o.Y, o.Z}
	if c&1 != 0 {
		p[0] += h
	}
	if c&2 != 0 {
		p[1] += h
	}
	if c&4 != 0 {
		p[2] += h
	}
	return p
}

func TestDomainMapping(t *testing.T) {
	d := Domain{Box: [3]float64{8, 4, 1}}
	c := d.Coord([3]uint32{morton.RootLen, morton.RootLen / 2, 0})
	if c[0] != 8 || c[1] != 2 || c[2] != 0 {
		t.Errorf("coord = %v", c)
	}
	o := morton.Octant{Level: 1}
	h := d.ElemSize(o)
	if h[0] != 4 || h[1] != 2 || h[2] != 0.5 {
		t.Errorf("elem size = %v", h)
	}
	ctr := d.ElemCenter(o)
	if ctr[0] != 2 || ctr[1] != 1 || ctr[2] != 0.25 {
		t.Errorf("center = %v", ctr)
	}
}
