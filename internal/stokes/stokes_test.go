package stokes

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// unitBox is the one-tree connectivity of the unit cube.
var unitBox = forest.BrickConnectivity(1, 1, 1)

// buildMesh makes a small test mesh, optionally with one corner refined
// (hanging nodes).
func buildMesh(r *sim.Rank, level uint8, adapt bool) *mesh.Mesh {
	tr := forest.New(r, unitBox, level)
	if adapt {
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
		tr.Balance()
		tr.Partition()
	}
	return mesh.Extract(tr, nil)
}

func constViscosity(m *mesh.Mesh, eta float64) []float64 {
	out := make([]float64, len(m.Leaves))
	for i := range out {
		out[i] = eta
	}
	return out
}

func TestOperatorSymmetry(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 1, true)
		dom := fem.UnitDomain
		s := Assemble(m, dom, constViscosity(m, 1), nil, FreeSlip(dom.Box), Options{})
		x := la.NewVec(s.Layout)
		y := la.NewVec(s.Layout)
		for i := range x.Data {
			g := float64(s.Layout.Start() + int64(i))
			x.Data[i] = math.Sin(g)
			y.Data[i] = math.Cos(2 * g)
		}
		ax, ay := la.NewVec(s.Layout), la.NewVec(s.Layout)
		s.A.Apply(x, ax)
		s.A.Apply(y, ay)
		d1, d2 := ax.Dot(y), ay.Dot(x)
		scale := math.Max(math.Abs(d1), 1)
		if math.Abs(d1-d2)/scale > 1e-10 {
			t.Errorf("Stokes operator asymmetric: %v vs %v", d1, d2)
		}
	})
}

// Hydrostatic balance: a body force that is the gradient of a potential
// (f = T(z) e_z with T depending only on z) must produce zero velocity;
// the pressure absorbs the force.
func TestHydrostaticBalance(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 2, false)
		dom := fem.UnitDomain
		force := make([][8][3]float64, len(m.Leaves))
		for ei, leaf := range m.Leaves {
			for c := 0; c < 8; c++ {
				h := leaf.Len()
				z := float64(leaf.Z)
				if c&4 != 0 {
					z += float64(h)
				}
				zn := z / float64(morton.RootLen)
				force[ei][c] = [3]float64{0, 0, 1 - zn} // T = 1-z
			}
		}
		s := Assemble(m, dom, constViscosity(m, 1), force, FreeSlip(dom.Box), Options{})
		x, res := s.Solve(1e-10, 500)
		if !res.Converged {
			t.Fatalf("MINRES failed: residual %v after %d its", res.Residual, res.Iterations)
		}
		// With Q1 pressure and Dohrmann-Bochev stabilization the quadratic
		// hydrostatic potential is represented to O(h^2), so the spurious
		// velocity is small but not zero.
		u, _ := s.SplitSolution(x)
		for c := 0; c < 3; c++ {
			if n := u[c].NormInf(); n > 0.01 {
				t.Errorf("hydrostatic velocity component %d = %v, want O(h^2) small", c, n)
			}
		}
	})
}

// Buoyancy-driven convection cell: laterally varying temperature drives a
// nonzero flow; the discrete velocity must be divergence-free to
// stabilization accuracy and satisfy the free-slip constraints exactly.
func TestBuoyantFlowDivergenceFree(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 2, true)
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
				x := dom.Coord(p)
				T := math.Sin(math.Pi*x[0]) * math.Cos(math.Pi*x[2])
				force[ei][c] = [3]float64{0, 0, T}
			}
		}
		s := Assemble(m, dom, constViscosity(m, 1), force, FreeSlip(dom.Box), Options{})
		x, res := s.Solve(1e-9, 800)
		if !res.Converged {
			t.Fatalf("MINRES failed: %v after %d", res.Residual, res.Iterations)
		}
		u, _ := s.SplitSolution(x)
		umax := 0.0
		for c := 0; c < 3; c++ {
			if n := u[c].NormInf(); n > umax {
				umax = n
			}
		}
		if umax < 1e-6 {
			t.Fatalf("flow did not develop: max |u| = %v", umax)
		}
		// Free-slip: normal components vanish on the boundary.
		for i, pos := range m.OwnedPos {
			xph := dom.Coord(pos)
			for c := 0; c < 3; c++ {
				if (xph[c] == 0 || xph[c] == 1) && math.Abs(u[c].Data[i]) > 1e-12 {
					t.Fatalf("free-slip violated at %v comp %d: %v", xph, c, u[c].Data[i])
				}
			}
		}
		// The stabilized pair controls divergence to O(h) relative to the
		// velocity gradient scale umax/h_min (h_min = 1/8 here).
		gradScale := umax / 0.125
		if dn := s.DivergenceNorm(x); dn > 0.5*gradScale {
			t.Errorf("divergence norm %v vs gradient scale %v", dn, gradScale)
		}
	})
}

// MINRES iteration count must stay bounded under strong viscosity
// contrast (the paper's preconditioner robustness claim).
func TestViscosityContrastRobustness(t *testing.T) {
	iters := map[float64]int{}
	for _, contrast := range []float64{1, 1e2, 1e4} {
		sim.Run(1, func(r *sim.Rank) {
			m := buildMesh(r, 2, false)
			dom := fem.UnitDomain
			eta := make([]float64, len(m.Leaves))
			for ei, leaf := range m.Leaves {
				// Stiff top layer, weak bottom (layered viscosity).
				zn := float64(leaf.Z) / float64(morton.RootLen)
				if zn >= 0.5 {
					eta[ei] = contrast
				} else {
					eta[ei] = 1
				}
			}
			force := make([][8][3]float64, len(m.Leaves))
			for ei := range force {
				x := dom.ElemCenter(m.Leaves[ei])
				for c := 0; c < 8; c++ {
					force[ei][c] = [3]float64{0, 0, math.Sin(math.Pi * x[0])}
				}
			}
			s := Assemble(m, dom, eta, force, FreeSlip(dom.Box), Options{})
			_, res := s.Solve(1e-8, 2000)
			if !res.Converged {
				t.Errorf("contrast %g: MINRES failed", contrast)
				return
			}
			iters[contrast] = res.Iterations
		})
	}
	if iters[1e4] > 6*iters[1]+40 {
		t.Errorf("iterations blow up with viscosity contrast: %v", iters)
	}
}

// Weak-scaling style check on iteration counts: growing the mesh must not
// substantially grow MINRES iterations (the Fig 2 property, in miniature).
func TestIterationCountMeshIndependence(t *testing.T) {
	counts := map[uint8]int{}
	for _, lvl := range []uint8{1, 2} {
		sim.Run(2, func(r *sim.Rank) {
			m := buildMesh(r, lvl, false)
			dom := fem.UnitDomain
			force := make([][8][3]float64, len(m.Leaves))
			for ei := range force {
				x := dom.ElemCenter(m.Leaves[ei])
				for c := 0; c < 8; c++ {
					force[ei][c] = [3]float64{0, 0, math.Sin(math.Pi * x[0])}
				}
			}
			s := Assemble(m, dom, constViscosity(m, 1), force, FreeSlip(dom.Box), Options{})
			_, res := s.Solve(1e-8, 2000)
			if !res.Converged {
				t.Errorf("level %d: not converged", lvl)
				return
			}
			if r.ID() == 0 {
				counts[lvl] = res.Iterations
			}
		})
	}
	if counts[2] > 3*counts[1]+30 {
		t.Errorf("iteration growth too steep: %v", counts)
	}
}

func TestSplitSolutionRoundTrip(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 1, false)
		dom := fem.UnitDomain
		s := Assemble(m, dom, constViscosity(m, 1), nil, FreeSlip(dom.Box), Options{})
		x := la.NewVec(s.Layout)
		for i := range x.Data {
			x.Data[i] = float64(i)
		}
		u, p := s.SplitSolution(x)
		for i := 0; i < m.NumOwned; i++ {
			for c := 0; c < 3; c++ {
				if u[c].Data[i] != float64(4*i+c) {
					t.Fatalf("split u mismatch")
				}
			}
			if p.Data[i] != float64(4*i+3) {
				t.Fatalf("split p mismatch")
			}
		}
	})
}

// The redundant AMG hierarchy must make MINRES iteration counts
// essentially independent of the rank count on the SAME global problem —
// the algorithmic-scalability property behind the paper's Fig 2.
func TestIterationCountRankInvariance(t *testing.T) {
	iters := map[int]int{}
	for _, p := range []int{1, 2, 4} {
		sim.Run(p, func(r *sim.Rank) {
			tr := forest.New(r, unitBox, 2)
			tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
			tr.Balance()
			tr.Partition()
			m := mesh.Extract(tr, nil)
			dom := fem.UnitDomain
			eta := make([]float64, len(m.Leaves))
			for ei, leaf := range m.Leaves {
				if float64(leaf.Z)/float64(morton.RootLen) > 0.5 {
					eta[ei] = 100
				} else {
					eta[ei] = 1
				}
			}
			force := make([][8][3]float64, len(m.Leaves))
			for ei := range force {
				x := dom.ElemCenter(m.Leaves[ei])
				for c := 0; c < 8; c++ {
					force[ei][c] = [3]float64{0, 0, math.Sin(math.Pi * x[0])}
				}
			}
			sys := Assemble(m, dom, eta, force, FreeSlip(dom.Box), Options{})
			_, res := sys.Solve(1e-8, 1500)
			if !res.Converged {
				t.Errorf("p=%d: not converged", p)
				return
			}
			if r.ID() == 0 {
				iters[p] = res.Iterations
			}
		})
	}
	// Identical global problem and (up to assembly rounding) identical
	// preconditioner: counts may differ by a few iterations only.
	for p, it := range iters {
		if d := it - iters[1]; d > 10 || d < -10 {
			t.Errorf("iterations vary with ranks: %v", iters)
			_ = p
		}
	}
}

// LocalAMG (block-Jacobi hierarchies) must still converge; it trades
// iteration growth for cheaper setup. Ablation cross-check.
func TestLocalAMGOptionConverges(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 2, false)
		dom := fem.UnitDomain
		force := make([][8][3]float64, len(m.Leaves))
		for ei := range force {
			x := dom.ElemCenter(m.Leaves[ei])
			for c := 0; c < 8; c++ {
				force[ei][c] = [3]float64{0, 0, math.Sin(math.Pi * x[0])}
			}
		}
		sys := Assemble(m, dom, constViscosity(m, 1), force, FreeSlip(dom.Box), Options{LocalAMG: true})
		_, res := sys.Solve(1e-7, 2000)
		if !res.Converged {
			t.Errorf("LocalAMG MINRES failed: %v", res.Residual)
		}
	})
}
