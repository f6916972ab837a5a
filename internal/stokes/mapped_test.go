package stokes

// Mapped-geometry regression tests for the Stokes solver: on a
// non-axis-aligned (sheared parallelepiped) single-tree forest the MMS
// velocity error must contract at the Q1 rate O(h^2) — the constant-h
// brick formulas would not even be consistent here — and on the curved
// cubed-sphere shell the matrix-free apply must reproduce the assembled
// CSR operator and right-hand side to rounding.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// shearA is the affine map of the test parallelepiped: x' = A x with
// non-orthogonal columns, so element Jacobians are constant but full.
var shearA = [3][3]float64{
	{1, 0.3, 0.1},
	{0.15, 1, 0.2},
	{0, 0.1, 1},
}

func shearApply(x [3]float64) [3]float64 {
	var y [3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			y[i] += shearA[i][j] * x[j]
		}
	}
	return y
}

// shearInv inverts shearA numerically (computed once).
var shearInv = invert3(shearA)

func invert3(a [3][3]float64) [3][3]float64 {
	det := a[0][0]*(a[1][1]*a[2][2]-a[1][2]*a[2][1]) -
		a[0][1]*(a[1][0]*a[2][2]-a[1][2]*a[2][0]) +
		a[0][2]*(a[1][0]*a[2][1]-a[1][1]*a[2][0])
	inv := 1 / det
	var b [3][3]float64
	b[0][0] = (a[1][1]*a[2][2] - a[1][2]*a[2][1]) * inv
	b[0][1] = (a[0][2]*a[2][1] - a[0][1]*a[2][2]) * inv
	b[0][2] = (a[0][1]*a[1][2] - a[0][2]*a[1][1]) * inv
	b[1][0] = (a[1][2]*a[2][0] - a[1][0]*a[2][2]) * inv
	b[1][1] = (a[0][0]*a[2][2] - a[0][2]*a[2][0]) * inv
	b[1][2] = (a[0][2]*a[1][0] - a[0][0]*a[1][2]) * inv
	b[2][0] = (a[1][0]*a[2][1] - a[1][1]*a[2][0]) * inv
	b[2][1] = (a[0][1]*a[2][0] - a[0][0]*a[2][1]) * inv
	b[2][2] = (a[0][0]*a[1][1] - a[0][1]*a[1][0]) * inv
	return b
}

// shearConn builds the one-tree connectivity of the sheared unit cube.
func shearConn() *forest.Connectivity {
	c := &forest.Connectivity{}
	for ci := 0; ci < 8; ci++ {
		ref := [3]float64{float64(ci & 1), float64(ci >> 1 & 1), float64(ci >> 2 & 1)}
		c.Verts = append(c.Verts, shearApply(ref))
	}
	c.TreeVerts = [][8]int{{0, 1, 2, 3, 4, 5, 6, 7}}
	if err := c.Finalize(); err != nil {
		panic(err)
	}
	return c
}

// onShearBoundary reports whether physical point x lies on the boundary
// of the sheared cube (reference coordinate 0 or 1 on any axis).
func onShearBoundary(x [3]float64) bool {
	var ref [3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			ref[i] += shearInv[i][j] * x[j]
		}
	}
	for i := 0; i < 3; i++ {
		if math.Abs(ref[i]) < 1e-9 || math.Abs(ref[i]-1) < 1e-9 {
			return true
		}
	}
	return false
}

// mappedMMSVelError runs one uniform-level solve on the sheared
// parallelepiped and returns the global L2 velocity error by quadrature.
// The manufactured pair is the same as the unit-cube MMS test, now as a
// function of the physical coordinates.
func mappedMMSVelError(t *testing.T, lvl uint8, opts Options) float64 {
	conn := shearConn()
	var err float64
	sim.Run(2, func(r *sim.Rank) {
		f := forest.New(r, conn, lvl)
		m := mesh.Extract(f, mesh.TrilinearGeometry{Conn: conn})
		dom := fem.UnitDomain
		eta := make([]float64, len(m.Leaves))
		for i := range eta {
			eta[i] = 1
		}
		force := make([][8][3]float64, len(m.Leaves))
		for ei := range m.Leaves {
			for c := 0; c < 8; c++ {
				force[ei][c] = mmsForce(m.X[ei][c])
			}
		}
		bc := func(x [3]float64) (fixed [3]bool, vals [3]float64) {
			if onShearBoundary(x) {
				return [3]bool{true, true, true}, mmsU(x)
			}
			return
		}
		sys := Assemble(m, dom, eta, force, bc, opts)
		x, res := sys.Solve(1e-10, 6000)
		if !res.Converged {
			t.Errorf("level %d: MINRES failed: %v after %d", lvl, res.Residual, res.Iterations)
		}
		u, _ := sys.SplitSolution(x)
		maps := m.GatherSlots(u[0].Data, u[1].Data, u[2].Data)
		var sum float64
		for ei := range m.Leaves {
			g := fem.NewElemGeom(&m.X[ei])
			var uc [3][8]float64
			for c := 0; c < 8; c++ {
				for d := 0; d < 3; d++ {
					co := &m.Corners[ei][c]
					var v float64
					for k := 0; k < int(co.N); k++ {
						v += co.W[k] * maps[d][co.Slot[k]]
					}
					uc[d][c] = v
				}
			}
			for qi, q := range fem.Quad8 {
				var xq [3]float64
				for c := 0; c < 8; c++ {
					for d := 0; d < 3; d++ {
						xq[d] += q.N[c] * m.X[ei][c][d]
					}
				}
				ue := mmsU(xq)
				for d := 0; d < 3; d++ {
					diff := fem.Interp(&uc[d], q.Xi) - ue[d]
					sum += g.Q[qi].W * diff * diff
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

// TestMappedMMSConvergence checks O(h^2) velocity convergence on the
// sheared parallelepiped for both the assembled and the fully
// matrix-free solver configurations.
func TestMappedMMSConvergence(t *testing.T) {
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
			e := mappedMMSVelError(t, lvl, path.opts)
			errs = append(errs, e)
			t.Logf("%s: level %d L2 velocity error %.4e", path.name, lvl, e)
		}
		for i := 1; i < len(errs); i++ {
			if errs[i] <= 0 {
				t.Fatalf("%s: zero/negative error at step %d", path.name, i)
			}
			rate := math.Log2(errs[i-1] / errs[i])
			t.Logf("%s: observed rate %.2f (levels %d->%d)", path.name, rate, levels[i-1], levels[i])
			if rate < 1.5 {
				t.Errorf("%s: convergence rate %.2f below expected ~2 (errors %v)", path.name, rate, errs)
			}
		}
		if last := math.Log2(errs[len(errs)-2] / errs[len(errs)-1]); last < 1.7 {
			t.Errorf("%s: final-step rate %.2f below asymptotic ~2 (errors %v)", path.name, last, errs)
		}
	}
}

// shellViscosity draws a deterministic, partition-independent
// per-element viscosity field on the shell, spanning two decades.
func shellViscosity(m *mesh.Mesh) []float64 {
	out := make([]float64, len(m.Leaves))
	for ei, leaf := range m.Leaves {
		key := uint64(m.Trees[ei])<<57 | leaf.Key()
		out[ei] = math.Pow(10, 2*prand(7, key)-1)
	}
	return out
}

// TestMappedMatfreeMatchesAssembled pins the matrix-free apply and RHS
// against the assembled CSR on the curved cubed-sphere shell — full
// per-element Jacobians, inter-tree coupling and (after refinement)
// hanging nodes across tree boundaries — to 1e-10.
func TestMappedMatfreeMatchesAssembled(t *testing.T) {
	conn := forest.CubedSphere(1)
	g := mesh.NewShellGeometry(conn)
	for _, p := range []int{1, 2} {
		for _, adapt := range []bool{false, true} {
			p, adapt := p, adapt
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
				bc := RadialNoSlip(g.RInner, g.ROuter)
				asm := Assemble(m, dom, eta, force, bc, Options{})
				mf := Assemble(m, dom, eta, force, bc, Options{MatrixFree: true})

				if d := relDiff(mf.B, asm.B); d > 1e-10 {
					t.Errorf("ranks %d adapt %v: RHS differs by %v", p, adapt, d)
				}
				x := la.NewVec(asm.Layout)
				for i := range x.Data {
					x.Data[i] = 2*prand(11, uint64(asm.Layout.Start())+uint64(i)) - 1
				}
				ya := la.NewVec(asm.Layout)
				ym := la.NewVec(asm.Layout)
				asm.Op.Apply(x, ya)
				mf.Op.Apply(x, ym)
				if d := relDiff(ym, ya); d > 1e-10 {
					t.Errorf("ranks %d adapt %v: apply differs by %v", p, adapt, d)
				}
			})
		}
	}
}
