package stokes

// The evidence the velocity V-cycle's cheap smoothing rests on: MINRES
// iteration counts are set by the Schur block, not by the velocity block.
// Replacing the one-V-cycle velocity block with an exact solve barely
// moves them, so a cycle that does more work per application buys
// nothing; a future cycle that does too little shows up here first.

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

// exactVelocityPrecond is s.Precond() with the velocity block solved
// exactly instead of by one V-cycle: per component, CG on the assembled
// constrained scalar operator, preconditioned by that component's
// V-cycle, to 1e-10. The free-slip boundary Jacobi rows and the Schur
// block are Precond's.
func exactVelocityPrecond(s *Solver, eta []float64) krylov.Operator {
	m, dom := s.M, s.Dom
	kern, kidx := fem.UnitStiffnessKernels(m, dom)
	elemMat := func(ei int, _ [3]float64) [8][8]float64 {
		K := kern[kidx[ei]].Full()
		for a := range K {
			for b := range K[a] {
				K[a][b] *= eta[ei]
			}
		}
		return K
	}
	bcds := fem.GatherBC(m, dom, s.compBC[:]...)
	var A [3]*la.Mat
	var vc [3]krylov.Operator
	for c := 0; c < 3; c++ {
		A[c], _, _ = fem.AssembleScalarWithBC(m, dom, elemMat, nil, bcds[c])
		vc[c] = s.GMGH.Precond(s.compBC[c])
	}
	xc, yc := la.NewVec(s.nodeL), la.NewVec(s.nodeL)
	return krylov.OpFunc(func(x, y *la.Vec) {
		n := s.nOwned
		for c := 0; c < 3; c++ {
			for i := 0; i < n; i++ {
				xc.Data[i] = x.Data[4*i+c]
			}
			yc.Zero()
			krylov.CG(A[c], vc[c], xc, yc, 1e-10, 500)
			for i := 0; i < n; i++ {
				y.Data[4*i+c] = yc.Data[i]
			}
		}
		for _, i := range s.slipOwned {
			d := s.slipDinv.Data[i]
			y.Data[4*int(i)+1] = d * x.Data[4*int(i)+1]
			y.Data[4*int(i)+2] = d * x.Data[4*int(i)+2]
		}
		for i := 0; i < n; i++ {
			y.Data[4*i+3] = s.schurInv.Data[i] * x.Data[4*i+3]
		}
	})
}

// TestVcycleIsNotTheBottleneck: on a bunge2-style shell (no-slip base,
// free-slip top, 30x viscosity jump at the 660 km depth) and on the
// adapted free-slip box of TestIterationCountRegression (1e3 contrast),
// MINRES preconditioned with one V-cycle per application takes at most
// 1.10x the iterations it takes with the exact velocity block.
func TestVcycleIsNotTheBottleneck(t *testing.T) {
	if testing.Short() {
		t.Skip("four MINRES solves, two with inner CG per application")
	}
	conn := forest.CubedSphere(2)
	g := mesh.NewShellGeometry(conn)
	const z660 = 2230.0 / 2890.0 // the discontinuity's depth fraction
	cases := []struct {
		name  string
		build func(r *sim.Rank) (*Solver, []float64)
	}{
		{"bunge2-style shell", func(r *sim.Rank) (*Solver, []float64) {
			m := mesh.Extract(forest.New(r, conn, 2), g)
			eta := make([]float64, len(m.Leaves))
			for ei := range eta {
				var c [3]float64
				for k := 0; k < 8; k++ {
					for d := 0; d < 3; d++ {
						c[d] += m.X[ei][k][d] / 8
					}
				}
				eta[ei] = 1
				if z := (math.Sqrt(c[0]*c[0]+c[1]*c[1]+c[2]*c[2]) - g.RInner) / (g.ROuter - g.RInner); z < z660 {
					eta[ei] = 30
				}
			}
			return Assemble(m, fem.UnitDomain, eta, shellForce(m), RadialNoSlipInner(g.RInner, g.ROuter), Options{
				MatrixFree: true, Precond: PrecondGMG,
				Slip: ShellSlipNormals(g.RInner, g.ROuter, false, true),
			}), eta
		}},
		{"adapted free-slip box", func(r *sim.Rank) (*Solver, []float64) {
			m, eta, force := regressionProblem(r, 1e3)
			return Assemble(m, fem.UnitDomain, eta, force, FreeSlip(fem.UnitDomain.Box), Options{
				MatrixFree: true, Precond: PrecondGMG,
			}), eta
		}},
	}
	for _, tc := range cases {
		var iters [2]int
		sim.Run(2, func(r *sim.Rank) {
			s, eta := tc.build(r)
			if s.NullDim() != 0 {
				t.Fatalf("%s: the fixture must have no velocity null space", tc.name)
			}
			for k, pc := range []krylov.Operator{s.Precond(), exactVelocityPrecond(s, eta)} {
				x := la.NewVec(s.Layout)
				res := krylov.MINRES(s.Op, pc, s.B, x, 1e-8, 2000)
				if !res.Converged {
					t.Errorf("%s: MINRES did not converge (%v after %d)", tc.name, res.Residual, res.Iterations)
				}
				iters[k] = res.Iterations
			}
		})
		t.Logf("%s: %d MINRES iterations with one V-cycle, %d with the exact velocity block", tc.name, iters[0], iters[1])
		if float64(iters[0]) > 1.10*float64(iters[1]) {
			t.Errorf("%s: the V-cycle is the bottleneck: %d iterations against %d with the exact velocity block (> 1.10x)",
				tc.name, iters[0], iters[1])
		}
	}
}
