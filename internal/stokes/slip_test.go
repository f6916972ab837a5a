package stokes

// Free-slip (rotated boundary frame) property tests: on the curved
// cubed-sphere shell — full per-element Jacobians, inter-tree coupling
// and (after refinement) hanging nodes — the conjugated matrix-free
// apply must reproduce the conjugated assembled CSR oracle to 1e-10, the
// rotated operator must stay symmetric, free-slip solves must converge
// with level-independent-ish iteration counts and produce velocities
// with no normal component at slip nodes, and the all-free-slip
// configuration must project out the rigid-rotation null space instead
// of stagnating on it.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// shellForce is the deterministic body force of the mapped operator
// tests: radial direction scaled by a non-symmetric wobble.
func shellForce(m *mesh.Mesh) [][8][3]float64 {
	force := make([][8][3]float64, len(m.Leaves))
	for ei := range m.Leaves {
		for c := 0; c < 8; c++ {
			x := m.X[ei][c]
			rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
			for d := 0; d < 3; d++ {
				force[ei][c][d] = x[d] / rad * math.Sin(3*x[0])
			}
		}
	}
	return force
}

// TestSlipMatfreeMatchesAssembled pins the rotated-frame matrix-free
// apply and RHS against the rotated-frame assembled CSR oracle on the
// shell, and checks symmetry of both conjugated operators, for
// free-slip-top and free-slip-both configurations, with and without
// hanging nodes.
func TestSlipMatfreeMatchesAssembled(t *testing.T) {
	conn := forest.CubedSphere(1)
	g := mesh.NewShellGeometry(conn)
	cases := []struct {
		name string
		bc   VelBC
		slip SlipNormal
	}{
		{"top", RadialNoSlipInner(g.RInner, g.ROuter), ShellSlipNormals(g.RInner, g.ROuter, false, true)},
		{"both", func([3]float64) ([3]bool, [3]float64) { return [3]bool{}, [3]float64{} },
			ShellSlipNormals(g.RInner, g.ROuter, true, true)},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2} {
			for _, adapt := range []bool{false, true} {
				tc, p, adapt := tc, p, adapt
				sim.Run(p, func(r *sim.Rank) {
					f := forest.New(r, conn, 1)
					if adapt {
						f.Refine(func(o forest.Octant) bool { return o.Tree%3 == 0 })
						f.Balance()
						f.Partition()
					}
					m := mesh.Extract(f, g)
					dom := fem.UnitDomain
					eta := shellViscosity(m)
					force := shellForce(m)
					mf := Assemble(m, dom, eta, force, tc.bc, Options{Slip: tc.slip})
					A, b := oracle(t, mf, eta, force)

					if d := relDiff(mf.B, b); d > 1e-10 {
						t.Errorf("%s ranks %d adapt %v: RHS differs by %v", tc.name, p, adapt, d)
					}
					x := la.NewVec(mf.Layout)
					z := la.NewVec(mf.Layout)
					for i := range x.Data {
						gidx := uint64(mf.Layout.Start()) + uint64(i)
						x.Data[i] = 2*prand(11, gidx) - 1
						z.Data[i] = 2*prand(13, gidx) - 1
					}
					ya := la.NewVec(mf.Layout)
					ym := la.NewVec(mf.Layout)
					A.Apply(x, ya)
					mf.Op.Apply(x, ym)
					if d := relDiff(ym, ya); d > 1e-10 {
						t.Errorf("%s ranks %d adapt %v: apply differs by %v", tc.name, p, adapt, d)
					}
					// Symmetry of the conjugated operators: (Ax).z == (Az).x.
					az := la.NewVec(mf.Layout)
					for _, op := range []struct {
						name string
						op   krylov.Operator
						ax   *la.Vec
					}{{"assembled", A, ya}, {"matfree", mf.Op, ym}} {
						op.op.Apply(z, az)
						lhs, rhs := op.ax.Dot(z), az.Dot(x)
						scale := math.Max(math.Abs(lhs), 1)
						if d := math.Abs(lhs-rhs) / scale; d > 1e-10 {
							t.Errorf("%s ranks %d adapt %v: %s operator asymmetric: |x.Az - z.Ax|/scale = %v",
								tc.name, p, adapt, op.name, d)
						}
					}
				})
			}
		}
	}
}

// TestSlipSolveNoPenetration solves free-slip-top shell Stokes and checks
// the physics of the rotated constraint: the velocity at outer-boundary
// nodes has (to solver tolerance) no radial component but nonzero
// tangential flow — a no-slip treatment would zero both.
func TestSlipSolveNoPenetration(t *testing.T) {
	conn := forest.CubedSphere(1)
	g := mesh.NewShellGeometry(conn)
	sim.Run(2, func(r *sim.Rank) {
		f := forest.New(r, conn, 1)
		m := mesh.Extract(f, g)
		dom := fem.UnitDomain
		eta := make([]float64, len(m.Leaves))
		for i := range eta {
			eta[i] = 1
		}
		force := shellForce(m)
		opts := Options{Slip: ShellSlipNormals(g.RInner, g.ROuter, false, true)}
		s := Assemble(m, dom, eta, force, RadialNoSlipInner(g.RInner, g.ROuter), opts)
		x, res := s.Solve(1e-9, 2000)
		if !res.Converged {
			t.Errorf("free-slip solve failed to converge: %v after %d", res.Residual, res.Iterations)
		}
		u := s.SplitSolution(x)
		tol := 1e-9 * g.ROuter
		maxN, maxT := 0.0, 0.0
		for i := 0; i < m.NumOwned; i++ {
			xx := fem.NodeCoord(m, dom, i)
			rad := math.Sqrt(xx[0]*xx[0] + xx[1]*xx[1] + xx[2]*xx[2])
			if math.Abs(rad-g.ROuter) >= tol {
				continue
			}
			un := (u[0].Data[i]*xx[0] + u[1].Data[i]*xx[1] + u[2].Data[i]*xx[2]) / rad
			ut := math.Sqrt(u[0].Data[i]*u[0].Data[i] + u[1].Data[i]*u[1].Data[i] +
				u[2].Data[i]*u[2].Data[i] - un*un)
			maxN = math.Max(maxN, math.Abs(un))
			maxT = math.Max(maxT, ut)
		}
		maxN = m.Rank.Allreduce(maxN, sim.OpMax)
		maxT = m.Rank.Allreduce(maxT, sim.OpMax)
		if maxN > 1e-12 {
			t.Errorf("normal velocity leaks through the free-slip boundary: max |u.n| = %v", maxN)
		}
		if maxT < 1e-8 {
			t.Errorf("tangential velocity at the free-slip boundary is %v — boundary behaves as no-slip", maxT)
		}
	})
}

// TestSlipNullSpaceProjection runs the all-free-slip shell (no Dirichlet
// velocity anywhere, rigid rotations unconstrained): the solver must
// detect the 3-dimensional null space, converge without stagnating on
// it, and return a solution orthogonal to the rotation modes.
func TestSlipNullSpaceProjection(t *testing.T) {
	conn := forest.CubedSphere(1)
	g := mesh.NewShellGeometry(conn)
	sim.Run(2, func(r *sim.Rank) {
		f := forest.New(r, conn, 1)
		m := mesh.Extract(f, g)
		dom := fem.UnitDomain
		eta := make([]float64, len(m.Leaves))
		for i := range eta {
			eta[i] = 1
		}
		force := shellForce(m)
		noBC := func([3]float64) ([3]bool, [3]float64) { return [3]bool{}, [3]float64{} }
		opts := Options{Slip: ShellSlipNormals(g.RInner, g.ROuter, true, true)}
		s := Assemble(m, dom, eta, force, noBC, opts)
		if got := s.NullDim(); got != 3 {
			t.Fatalf("NullDim = %d, want 3", got)
		}
		x, res := s.Solve(1e-9, 2000)
		if !res.Converged {
			t.Errorf("all-free-slip solve failed to converge: %v after %d", res.Residual, res.Iterations)
		}
		// The solution must stay orthogonal to the projected-out modes.
		for k, mode := range s.null {
			if a := math.Abs(x.Dot(mode)); a > 1e-8*math.Max(x.Norm2(), 1) {
				t.Errorf("solution has rotation-mode %d component %v", k, a)
			}
		}
	})
}

// TestSlipIterationsLevelIndependent checks the acceptance criterion on
// preconditioner quality: free-slip-top GMG-preconditioned MINRES
// iteration counts must not blow up under refinement (the unguarded
// Dirichlet treatment of slip nodes without the boundary Jacobi rows
// loses level independence).
func TestSlipIterationsLevelIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level shell solves")
	}
	conn := forest.CubedSphere(1)
	g := mesh.NewShellGeometry(conn)
	var iters [2]int
	for li, lvl := range []uint8{1, 2} {
		li, lvl := li, lvl
		sim.Run(2, func(r *sim.Rank) {
			f := forest.New(r, conn, lvl)
			m := mesh.Extract(f, g)
			dom := fem.UnitDomain
			eta := make([]float64, len(m.Leaves))
			for i := range eta {
				eta[i] = 1
			}
			force := shellForce(m)
			opts := Options{Slip: ShellSlipNormals(g.RInner, g.ROuter, false, true)}
			s := Assemble(m, dom, eta, force, RadialNoSlipInner(g.RInner, g.ROuter), opts)
			_, res := s.Solve(1e-8, 4000)
			if !res.Converged {
				t.Errorf("level %d: free-slip solve failed to converge after %d iterations", lvl, res.Iterations)
			}
			if r.ID() == 0 {
				iters[li] = res.Iterations
			}
		})
		t.Logf("level %d: %d MINRES iterations", lvl, iters[li])
	}
	if iters[1] > 2*iters[0]+20 {
		t.Errorf("free-slip MINRES iterations grow with refinement: %d -> %d", iters[0], iters[1])
	}
}
