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

func TestStiffnessProperties(t *testing.T) {
	h := [3]float64{0.5, 0.25, 1}
	K := StiffnessBrick(h, 3)
	for a := 0; a < 8; a++ {
		var rs float64
		for b := 0; b < 8; b++ {
			rs += K[a][b]
			if math.Abs(K[a][b]-K[b][a]) > 1e-13 {
				t.Errorf("asymmetric stiffness at %d,%d", a, b)
			}
		}
		if math.Abs(rs) > 1e-12 {
			t.Errorf("row %d sum %v (constants not in nullspace)", a, rs)
		}
		if K[a][a] <= 0 {
			t.Errorf("diagonal %d not positive", a)
		}
	}
	// Linear field x: energy = coef * integral |grad x|^2 = 3 * vol / hx^2... :
	// u = x => grad = (1,0,0), energy = 3 * vol.
	vol := h[0] * h[1] * h[2]
	var u [8]float64
	for c := 0; c < 8; c++ {
		if c&1 == 1 {
			u[c] = h[0]
		}
	}
	var e float64
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			e += u[a] * K[a][b] * u[b]
		}
	}
	if math.Abs(e-3*vol) > 1e-12 {
		t.Errorf("energy of linear field = %v, want %v", e, 3*vol)
	}
}

func TestMassMatrixIntegratesVolume(t *testing.T) {
	h := [3]float64{0.5, 2, 0.125}
	vol := h[0] * h[1] * h[2]
	M := MassBrick(h, 1)
	var s float64
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			s += M[a][b]
		}
	}
	if math.Abs(s-vol) > 1e-13 {
		t.Errorf("mass total %v want %v", s, vol)
	}
	lm := LumpedMassBrick(h, 1)
	var ls float64
	for _, v := range lm {
		ls += v
	}
	if math.Abs(ls-vol) > 1e-13 {
		t.Errorf("lumped mass total %v want %v", ls, vol)
	}
}

func TestViscousBrickProperties(t *testing.T) {
	h := [3]float64{1, 1, 1}
	A := ViscousBrick(h, 2)
	// Symmetry.
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			if math.Abs(A[i][j]-A[j][i]) > 1e-12 {
				t.Fatalf("viscous block asymmetric at %d,%d", i, j)
			}
		}
	}
	// Rigid translations produce zero energy.
	for d := 0; d < 3; d++ {
		var u [24]float64
		for c := 0; c < 8; c++ {
			u[3*c+d] = 1
		}
		var e float64
		for i := 0; i < 24; i++ {
			for j := 0; j < 24; j++ {
				e += u[i] * A[i][j] * u[j]
			}
		}
		if math.Abs(e) > 1e-12 {
			t.Errorf("translation %d has energy %v", d, e)
		}
	}
	// Rigid rotation about z: u = (-y, x, 0) gives zero strain energy.
	var u [24]float64
	for c := 0; c < 8; c++ {
		y := float64(c >> 1 & 1)
		x := float64(c & 1)
		u[3*c+0] = -y
		u[3*c+1] = x
	}
	var e float64
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			e += u[i] * A[i][j] * u[j]
		}
	}
	if math.Abs(e) > 1e-12 {
		t.Errorf("rotation has strain energy %v", e)
	}
}

func TestDivergenceBrickOnLinearField(t *testing.T) {
	h := [3]float64{0.5, 0.5, 0.5}
	B := DivergenceBrick(h)
	// u = (x, 0, 0): div u = 1; sum_a B[a][.]u = -integral phi_a * 1.
	var u [24]float64
	for c := 0; c < 8; c++ {
		if c&1 == 1 {
			u[3*c] = h[0]
		}
	}
	vol := h[0] * h[1] * h[2]
	var total float64
	for a := 0; a < 8; a++ {
		var s float64
		for j := 0; j < 24; j++ {
			s += B[a][j] * u[j]
		}
		total += s
	}
	if math.Abs(total+vol) > 1e-13 {
		t.Errorf("sum of divergence rows = %v, want %v", total, -vol)
	}
	// Divergence-free rotation: all rows zero.
	var w [24]float64
	for c := 0; c < 8; c++ {
		x := float64(c&1) * h[0]
		y := float64(c>>1&1) * h[1]
		w[3*c+0] = -y
		w[3*c+1] = x
	}
	for a := 0; a < 8; a++ {
		var s float64
		for j := 0; j < 24; j++ {
			s += B[a][j] * w[j]
		}
		if math.Abs(s) > 1e-13 {
			t.Errorf("row %d on div-free field: %v", a, s)
		}
	}
}

func TestStabilizationAnnihilatesConstants(t *testing.T) {
	h := [3]float64{0.25, 0.5, 0.25}
	C := StabilizationBrick(h, 4)
	for a := 0; a < 8; a++ {
		var rs float64
		for b := 0; b < 8; b++ {
			rs += C[a][b]
			if math.Abs(C[a][b]-C[b][a]) > 1e-14 {
				t.Errorf("stabilization asymmetric")
			}
		}
		if math.Abs(rs) > 1e-14 {
			t.Errorf("stabilization row %d sum %v", a, rs)
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
			t.Errorf("stabilization indefinite: %v", e)
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

// Patch test: on an adapted mesh with hanging nodes, the FEM solution of
// Laplace's equation with linear Dirichlet data must reproduce the linear
// function to solver accuracy. This exercises assembly, hanging-node
// constraints, boundary elimination, CG and the ghost exchange together.
func TestPoissonPatchTest(t *testing.T) {
	lin := func(x [3]float64) float64 { return 2*x[0] - 3*x[1] + 0.5*x[2] + 1 }
	for _, p := range []int{1, 4} {
		sim.Run(p, func(r *sim.Rank) {
			tr := forest.New(r, unitBox, 1)
			tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
			tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
			tr.Balance()
			tr.Partition()
			m := mesh.Extract(tr, nil)
			dom := UnitDomain
			bc := func(x [3]float64) (float64, bool) {
				onB := x[0] == 0 || x[1] == 0 || x[2] == 0 || x[0] == 1 || x[1] == 1 || x[2] == 1
				if onB {
					return lin(x), true
				}
				return 0, false
			}
			A, b, _ := AssembleScalar(m, dom,
				func(ei int, h [3]float64) [8][8]float64 { return StiffnessBrick(h, 1) },
				nil, bc)
			x := la.NewVec(m.Layout())
			res := krylov.CG(A, krylov.Jacobi(A), b, x, 1e-12, 2000)
			if !res.Converged {
				t.Errorf("p=%d: CG failed (res %v)", p, res.Residual)
				return
			}
			for i, pos := range m.OwnedPos {
				want := lin(dom.Coord(pos))
				if math.Abs(x.Data[i]-want) > 1e-7 {
					t.Errorf("p=%d: node %v: %v want %v", p, pos, x.Data[i], want)
					return
				}
			}
		})
	}
}

// Manufactured-solution convergence: -Laplace u = f with
// u = sin(pi x) sin(pi y) sin(pi z); the L-infinity nodal error must
// shrink by roughly 4x per uniform refinement (second-order elements).
func TestPoissonConvergence(t *testing.T) {
	exact := func(x [3]float64) float64 {
		return math.Sin(math.Pi*x[0]) * math.Sin(math.Pi*x[1]) * math.Sin(math.Pi*x[2])
	}
	errAt := func(level uint8) float64 {
		var maxErr float64
		sim.Run(2, func(r *sim.Rank) {
			tr := forest.New(r, unitBox, level)
			m := mesh.Extract(tr, nil)
			dom := UnitDomain
			bc := func(x [3]float64) (float64, bool) {
				if x[0] == 0 || x[1] == 0 || x[2] == 0 || x[0] == 1 || x[1] == 1 || x[2] == 1 {
					return 0, true
				}
				return 0, false
			}
			A, b, _ := AssembleScalar(m, dom,
				func(ei int, h [3]float64) [8][8]float64 { return StiffnessBrick(h, 1) },
				func(ei int, h [3]float64) [8]float64 {
					// Consistent load: f = 3 pi^2 u at corners, lumped.
					var F [8]float64
					lm := LumpedMassBrick(h, 1)
					leaf := m.Leaves[ei]
					for c := 0; c < 8; c++ {
						pos := dom.Coord(cornerPosFEM(leaf, c))
						F[c] = lm[c] * 3 * math.Pi * math.Pi * exact(pos)
					}
					return F
				}, bc)
			x := la.NewVec(m.Layout())
			if res := krylov.CG(A, krylov.Jacobi(A), b, x, 1e-12, 4000); !res.Converged {
				t.Errorf("CG failed at level %d", level)
				return
			}
			var e float64
			for i, pos := range m.OwnedPos {
				if d := math.Abs(x.Data[i] - exact(dom.Coord(pos))); d > e {
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
	if ratio < 2.5 {
		t.Errorf("convergence ratio %v (e2=%v e3=%v), want ~4", ratio, e2, e3)
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
