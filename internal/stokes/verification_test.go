package stokes

// The paper verifies RHEA against the established mantle-convection code
// CitcomCU. With no external comparator available, this file plays that
// role with the method of manufactured solutions: an analytic
// divergence-free velocity field and pressure are substituted into the
// Stokes equations to derive the body force; the discrete solution must
// then converge to the analytic one at second order.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// Manufactured fields (unit viscosity, unit box, free-slip compatible):
//
//	u = ( pi sin(pi x) cos(pi z), 0, -pi cos(pi x) sin(pi z) )   (div u = 0)
//	p = cos(pi x) cos(pi z)
//
// f = -div(2 eps(u)) + grad p = -Laplace(u) + grad p for this u:
//
//	f_x = 2 pi^3 sin(pi x) cos(pi z) - pi sin(pi x) cos(pi z)
//	f_z = -2 pi^3 cos(pi x) sin(pi z) - pi cos(pi x) sin(pi z)
func manuU(x [3]float64) [3]float64 {
	return [3]float64{
		math.Pi * math.Sin(math.Pi*x[0]) * math.Cos(math.Pi*x[2]),
		0,
		-math.Pi * math.Cos(math.Pi*x[0]) * math.Sin(math.Pi*x[2]),
	}
}

func manuF(x [3]float64) [3]float64 {
	s, c := math.Sin(math.Pi*x[0]), math.Cos(math.Pi*x[0])
	sz, cz := math.Sin(math.Pi*x[2]), math.Cos(math.Pi*x[2])
	p3 := 2 * math.Pi * math.Pi * math.Pi
	return [3]float64{
		p3*s*cz - math.Pi*s*cz,
		0,
		-p3*c*sz - math.Pi*c*sz,
	}
}

// solveManufactured returns the max nodal velocity error at a level.
func solveManufactured(t *testing.T, level uint8) float64 {
	var maxErr float64
	sim.Run(2, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, level)
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
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
				force[ei][c] = manuF(dom.Coord(p))
			}
		}
		// The manufactured u has zero normal component on every face of
		// the unit box, so free-slip is the exact boundary condition.
		s := Assemble(m, dom, constViscosity(m, 1), force, FreeSlip(dom.Box), Options{})
		x, res := s.Solve(1e-10, 3000)
		if !res.Converged {
			t.Errorf("level %d: MINRES failed (%v)", level, res.Residual)
			return
		}
		u, _ := s.SplitSolution(x)
		var e float64
		for i, pos := range m.OwnedPos {
			exact := manuU(dom.Coord(pos))
			for c := 0; c < 3; c++ {
				if d := math.Abs(u[c].Data[i] - exact[c]); d > e {
					e = d
				}
			}
		}
		ge := r.Allreduce(e, sim.OpMax)
		if r.ID() == 0 {
			maxErr = ge
		}
	})
	return maxErr
}

func TestManufacturedStokesConvergence(t *testing.T) {
	e2 := solveManufactured(t, 2)
	e3 := solveManufactured(t, 3)
	if e2 == 0 || e3 == 0 {
		t.Fatal("no error measured")
	}
	// Velocity magnitude is ~pi; errors must be small and shrink at
	// roughly second order (allow 2.2x for the coarse pre-asymptotics).
	if e2 > 1.0 {
		t.Errorf("level-2 error %v too large", e2)
	}
	if ratio := e2 / e3; ratio < 2.2 {
		t.Errorf("convergence ratio %v (e2=%v e3=%v), want ~4", ratio, e2, e3)
	}
}
