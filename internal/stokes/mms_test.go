package stokes

// Manufactured-solution (MMS) convergence test for the full Stokes solve:
// a smooth analytic divergence-free velocity / pressure pair is imposed
// through the body force and inhomogeneous Dirichlet data, and the
// discrete L2 velocity error must fall at the Q1 rate O(h^2) as the mesh
// refines — for both the assembled+AMG and the fully matrix-free
// (matfree apply + GMG preconditioner) solver configurations.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// mmsU is the exact velocity: the curl of the stream function
// psi = sin(pi x) sin(pi z) in the y-direction — divergence-free with
// nonzero tangential boundary values.
func mmsU(x [3]float64) [3]float64 {
	return [3]float64{
		math.Pi * math.Sin(math.Pi*x[0]) * math.Cos(math.Pi*x[2]),
		0,
		-math.Pi * math.Cos(math.Pi*x[0]) * math.Sin(math.Pi*x[2]),
	}
}

// mmsForce is f = -Laplace(u) + grad(p) for the exact pair with eta = 1
// and p = cos(pi x) cos(pi z).
func mmsForce(x [3]float64) [3]float64 {
	u := mmsU(x)
	return [3]float64{
		2*math.Pi*math.Pi*u[0] - math.Pi*math.Sin(math.Pi*x[0])*math.Cos(math.Pi*x[2]),
		0,
		2*math.Pi*math.Pi*u[2] - math.Pi*math.Cos(math.Pi*x[0])*math.Sin(math.Pi*x[2]),
	}
}

// mmsVelError runs one uniform-level solve with the given options and
// returns the global L2 velocity error by 2x2x2 Gauss quadrature.
func mmsVelError(t *testing.T, lvl uint8, opts Options) float64 {
	var err float64
	sim.Run(2, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, lvl)
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		eta := constViscosity(m, 1)
		force := make([][8][3]float64, len(m.Leaves))
		for ei, leaf := range m.Leaves {
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
				force[ei][c] = mmsForce(dom.Coord(p))
			}
		}
		bc := func(x [3]float64) (fixed [3]bool, vals [3]float64) {
			for a := 0; a < 3; a++ {
				if x[a] == 0 || x[a] == 1 {
					return [3]bool{true, true, true}, mmsU(x)
				}
			}
			return
		}
		sys := Assemble(m, dom, eta, force, bc, opts)
		x, res := sys.Solve(1e-10, 4000)
		if !res.Converged {
			t.Errorf("level %d: MINRES failed: %v after %d", lvl, res.Residual, res.Iterations)
		}
		u, _ := sys.SplitSolution(x)
		maps := m.GatherSlots(u[0].Data, u[1].Data, u[2].Data)
		var sum float64
		for ei, leaf := range m.Leaves {
			hph := dom.ElemSize(leaf)
			vol := hph[0] * hph[1] * hph[2]
			var uc [3][8]float64
			for c := 0; c < 8; c++ {
				for d := 0; d < 3; d++ {
					uc[d][c] = 0
					co := m.Corner(ei, c)
					for k := 0; k < int(co.N); k++ {
						uc[d][c] += co.W[k] * maps[d][co.Slot[k]]
					}
				}
			}
			org := dom.Coord([3]uint32{leaf.X, leaf.Y, leaf.Z})
			for _, q := range fem.Quad8 {
				xq := [3]float64{
					org[0] + q.Xi[0]*hph[0],
					org[1] + q.Xi[1]*hph[1],
					org[2] + q.Xi[2]*hph[2],
				}
				ue := mmsU(xq)
				for d := 0; d < 3; d++ {
					diff := fem.Interp(&uc[d], q.Xi) - ue[d]
					sum += q.W * vol * diff * diff
				}
			}
		}
		total := m.Rank.Allreduce(sum, sim.OpSum)
		if r.ID() == 0 {
			err = math.Sqrt(total)
		}
	})
	return err
}

// TestMMSConvergence drives the manufactured solution through three
// refinement levels for both preconditioner paths and asserts the L2
// velocity error contracts at (close to) the expected second-order rate
// on every refinement step.
func TestMMSConvergence(t *testing.T) {
	// Levels 1..3 keep both paths' solves in the seconds range; the first
	// step is pre-asymptotic (observed rate ~1.65), the last is clean
	// second order (~1.9). Level 4 confirms rate 1.97 but costs minutes,
	// so it stays out of the tier-1 suite.
	levels := []uint8{1, 2, 3}
	paths := []struct {
		name string
		opts Options
	}{
		{"assembled+AMG", Options{}},
		{"matfree+GMG", Options{MatrixFree: true, Precond: PrecondGMG}},
	}
	for _, path := range paths {
		var errs []float64
		for _, lvl := range levels {
			e := mmsVelError(t, lvl, path.opts)
			errs = append(errs, e)
			t.Logf("%s: level %d L2 velocity error %.4e", path.name, lvl, e)
		}
		for i := 1; i < len(errs); i++ {
			if errs[i] <= 0 {
				t.Fatalf("%s: zero/negative error at step %d", path.name, i)
			}
			rate := math.Log2(errs[i-1] / errs[i])
			t.Logf("%s: observed rate %.2f (levels %d->%d)", path.name, rate, levels[i-1], levels[i])
			// Q1 velocity converges at rate 2; allow pre-asymptotic slack
			// on early steps but demand near-second-order on the last.
			if rate < 1.5 {
				t.Errorf("%s: convergence rate %.2f below expected ~2 (errors %v)", path.name, rate, errs)
			}
		}
		if last := math.Log2(errs[len(errs)-2] / errs[len(errs)-1]); last < 1.7 {
			t.Errorf("%s: final-step rate %.2f below asymptotic ~2 (errors %v)", path.name, last, errs)
		}
	}
}
