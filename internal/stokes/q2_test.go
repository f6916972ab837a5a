package stokes

// Taylor-Hood (Q2-Q1) solver tests: manufactured-solution convergence at
// the third-order velocity rate, matrix-free operator symmetry, the
// corner-force interpolation path, and rank-count consistency. The MMS
// pair is shared with the Q1 test (mms_test.go); here the body force is
// evaluated exactly at the 27 element nodes through UpdateQ2, because a
// trilinearly interpolated force would cap the observable rate at two.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

func q2Options() Options {
	return Options{Order: 2}
}

// buildQ2Mesh extracts a uniform mesh plus its Q2 node layer.
func buildQ2Mesh(r *sim.Rank, level uint8) *mesh.Mesh {
	tr := forest.New(r, unitBox, level)
	m := mesh.Extract(tr, nil)
	m.Q2 = mesh.ExtractQ2(tr, m)
	return m
}

// q2MMSVelError runs one uniform-level Taylor-Hood solve with exact
// nodal forces and returns the global L2 velocity error by 3x3x3 Gauss
// quadrature of the triquadratic interpolant.
func q2MMSVelError(t *testing.T, lvl uint8, ranks int) float64 {
	var err float64
	sim.Run(ranks, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, lvl)
		m := mesh.Extract(tr, nil)
		m.Q2 = mesh.ExtractQ2(tr, m)
		dom := fem.UnitDomain
		eta := constViscosity(m, 1)
		force := make([][27][3]float64, len(m.Leaves))
		for ei, leaf := range m.Leaves {
			for n := 0; n < 27; n++ {
				force[ei][n] = mmsForce(dom.CoordHalf(mesh.Q2NodePos2(leaf, n)))
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
		sys := Setup(m, dom, bc, q2Options()).UpdateQ2(eta, force)
		x, res := sys.Solve(1e-10, 6000)
		if !res.Converged {
			t.Errorf("level %d: MINRES failed: %v after %d", lvl, res.Residual, res.Iterations)
		}
		// Gather per-component Q2 nodal values (owned + ghost slots).
		q2 := m.Q2
		var vals [3][]float64
		for c := 0; c < 3; c++ {
			vals[c] = make([]float64, q2.NSlots())
			for i := 0; i < q2.NumOwned; i++ {
				vals[c][i] = x.Data[4*i+c]
			}
			q2.GX.Gather(vals[c][:q2.NumOwned], vals[c][q2.NumOwned:])
		}
		var sum float64
		for ei, leaf := range m.Leaves {
			hph := dom.ElemSize(leaf)
			vol := hph[0] * hph[1] * hph[2]
			org := dom.Coord([3]uint32{leaf.X, leaf.Y, leaf.Z})
			ns := &q2.Nodes[ei]
			for _, q := range fem.Quad27 {
				xq := [3]float64{
					org[0] + q.Xi[0]*hph[0],
					org[1] + q.Xi[1]*hph[1],
					org[2] + q.Xi[2]*hph[2],
				}
				ue := mmsU(xq)
				for d := 0; d < 3; d++ {
					var uh float64
					for a := 0; a < 27; a++ {
						uh += q.N[a] * vals[d][ns[a]]
					}
					diff := uh - ue[d]
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

// TestQ2MMSConvergence drives the manufactured solution through three
// refinement levels of the Taylor-Hood solver and asserts the L2
// velocity error contracts at (close to) the third-order rate.
func TestQ2MMSConvergence(t *testing.T) {
	levels := []uint8{1, 2, 3}
	var errs []float64
	for _, lvl := range levels {
		e := q2MMSVelError(t, lvl, 2)
		errs = append(errs, e)
		t.Logf("Q2: level %d L2 velocity error %.4e", lvl, e)
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] <= 0 {
			t.Fatalf("zero/negative error at step %d", i)
		}
		rate := math.Log2(errs[i-1] / errs[i])
		t.Logf("Q2: observed rate %.2f (levels %d->%d)", rate, levels[i-1], levels[i])
		if rate < 2.5 {
			t.Errorf("Q2 convergence rate %.2f below expected ~3 (errors %v)", rate, errs)
		}
	}
	if last := math.Log2(errs[len(errs)-2] / errs[len(errs)-1]); last < 2.7 {
		t.Errorf("Q2 final-step rate %.2f below asymptotic ~3 (errors %v)", last, errs)
	}
}

// TestQ2RankCountConsistency reruns one MMS level on different rank
// counts: the discrete problem is identical, so the measured error must
// agree to solver tolerance.
func TestQ2RankCountConsistency(t *testing.T) {
	e1 := q2MMSVelError(t, 2, 1)
	e4 := q2MMSVelError(t, 2, 4)
	if rel := math.Abs(e1-e4) / e1; rel > 1e-6 {
		t.Errorf("Q2 MMS error differs across rank counts: %v (1 rank) vs %v (4 ranks), rel %v", e1, e4, rel)
	}
}

// TestQ2OperatorSymmetry checks <Ax,y> == <x,Ay> for the eliminated
// matrix-free Taylor-Hood operator on deterministic test vectors that
// vanish at constrained dofs (identity rows are symmetric only on the
// complement, as in the assembled Q1 operator).
func TestQ2OperatorSymmetry(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildQ2Mesh(r, 1)
		dom := fem.UnitDomain
		s := Setup(m, dom, FreeSlip(dom.Box), q2Options()).UpdateQ2(constViscosity(m, 1), nil)
		x := la.NewVec(s.Layout)
		y := la.NewVec(s.Layout)
		for i := range x.Data {
			g := float64(s.Layout.Start() + int64(i))
			x.Data[i] = math.Sin(g)
			y.Data[i] = math.Cos(2 * g)
		}
		for i := 0; i < m.Q2.NumOwned; i++ {
			for c := 0; c < 4; c++ {
				if s.cons.Fixed[4*i+c] {
					x.Data[4*i+c] = 0
					y.Data[4*i+c] = 0
				}
			}
		}
		ax, ay := la.NewVec(s.Layout), la.NewVec(s.Layout)
		s.Op.Apply(x, ax)
		s.Op.Apply(y, ay)
		d1, d2 := ax.Dot(y), ay.Dot(x)
		scale := math.Max(math.Abs(d1), 1)
		if math.Abs(d1-d2)/scale > 1e-10 {
			t.Errorf("Q2 Stokes operator asymmetric: %v vs %v", d1, d2)
		}
	})
}

// TestQ2CornerForceInterpolation: for a force field linear in position,
// trilinear interpolation to the 27 nodes is exact, so the Update
// (corner force) and UpdateQ2 (nodal force) right-hand sides must agree
// to rounding.
func TestQ2CornerForceInterpolation(t *testing.T) {
	lin := func(x [3]float64) [3]float64 {
		return [3]float64{0.3*x[0] - x[2], x[1] + 2*x[2], 1 - x[0] + 0.5*x[1]}
	}
	sim.Run(2, func(r *sim.Rank) {
		m := buildQ2Mesh(r, 2)
		dom := fem.UnitDomain
		eta := constViscosity(m, 1)
		f8 := make([][8][3]float64, len(m.Leaves))
		f27 := make([][27][3]float64, len(m.Leaves))
		for ei, leaf := range m.Leaves {
			for n := 0; n < 27; n++ {
				f27[ei][n] = lin(dom.CoordHalf(mesh.Q2NodePos2(leaf, n)))
			}
			for c := 0; c < 8; c++ {
				f8[ei][c] = f27[ei][fem.Q2CornerNode(c)]
			}
		}
		s1 := Setup(m, dom, FreeSlip(dom.Box), q2Options()).Update(eta, f8)
		s2 := Setup(m, dom, FreeSlip(dom.Box), q2Options()).UpdateQ2(eta, f27)
		var maxDiff, maxB float64
		for i := range s1.B.Data {
			maxDiff = math.Max(maxDiff, math.Abs(s1.B.Data[i]-s2.B.Data[i]))
			maxB = math.Max(maxB, math.Abs(s2.B.Data[i]))
		}
		if maxDiff > 1e-13*maxB {
			t.Errorf("corner-force RHS differs from nodal-force RHS: max diff %v (max |b| %v)", maxDiff, maxB)
		}
	})
}

// TestQ2InactivePressureStaysZero: non-vertex pressure dofs are
// constrained to zero and must come out of the solve exactly zero, and
// vertex velocities must round-trip through SplitSolution.
func TestQ2InactivePressureStaysZero(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildQ2Mesh(r, 2)
		dom := fem.UnitDomain
		force := make([][8][3]float64, len(m.Leaves))
		for ei, leaf := range m.Leaves {
			for c := 0; c < 8; c++ {
				p := dom.CoordHalf(mesh.Q2NodePos2(leaf, fem.Q2CornerNode(c)))
				force[ei][c] = [3]float64{0, 0, math.Sin(math.Pi * p[0])}
			}
		}
		s := Setup(m, dom, FreeSlip(dom.Box), q2Options()).Update(constViscosity(m, 1), force)
		x, res := s.Solve(1e-8, 2000)
		if !res.Converged {
			t.Fatalf("MINRES failed: %v after %d", res.Residual, res.Iterations)
		}
		q2 := m.Q2
		for i := 0; i < q2.NumOwned; i++ {
			if q2.VertLocal[i] < 0 && x.Data[4*i+3] != 0 {
				t.Fatalf("inactive pressure dof at Q2 node %d = %v, want exactly 0", i, x.Data[4*i+3])
			}
		}
		u := s.SplitSolution(x)
		for li := 0; li < m.NumOwned; li++ {
			qi := int(q2.Q1ToQ2[li])
			for c := 0; c < 3; c++ {
				if u[c].Data[li] != x.Data[4*qi+c] {
					t.Fatalf("SplitSolution velocity mismatch at node %d comp %d", li, c)
				}
			}
		}
	})
}
