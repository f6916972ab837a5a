package gmg

// Coarse-solve tests: the V-cycle with its one-rank Cholesky coarsest
// level is a fixed linear operator, the factor solves exactly what a
// distributed preconditioned CG solves iteratively, and
// an operator that is not positive definite is refused loudly at
// set-up instead of being iterated on.

import (
	"errors"
	"math"
	"strings"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/sim"
)

// distributedRef is an iterative coarsest-level solve over whatever
// communicator holds the level: CG preconditioned by Jacobi on the
// assembled operator, to a relative tolerance. It is the oracle the dense
// Cholesky solve is held to.
type distributedRef struct {
	A     *la.Mat
	pc    krylov.Operator
	rtol  float64
	maxIt int
}

func newDistributedRef(A *la.Mat, rtol float64, maxIt int) *distributedRef {
	return &distributedRef{A: A, pc: krylov.Jacobi(A), rtol: rtol, maxIt: maxIt}
}

// Apply solves A y = x from a zero initial guess (collective).
func (d *distributedRef) Apply(x, y *la.Vec) {
	y.Zero()
	krylov.CG(d.A, d.pc, x, y, d.rtol, d.maxIt)
}

// faceBC returns the Dirichlet set of velocity component c under free
// slip on the unit box: the two faces normal to axis c.
func faceBC(c int) fem.ScalarBC {
	return func(x [3]float64) (float64, bool) { return 0, x[c] == 0 || x[c] == 1 }
}

// TestVcycleIsLinear: at default options one application is a fixed
// linear operator — M(ax+by) = aMx + bMy to 1e-13 relative — for the
// scalar and the width-3 cycle, across the final one-rank gap. The
// iterative coarse solve it replaced was linear only to its tolerance.
func TestVcycleIsLinear(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 3, true)
		h := New(m, fem.UnitDomain, agglomTestEta(m, 1), Options{})
		for _, bcs := range [][]fem.ScalarBC{{agglomTestBC}, {faceBC(0), faceBC(1), faceBC(2)}} {
			c := h.PrecondBlock(bcs)
			w := len(bcs)
			n := w * m.NumOwned
			x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range x {
				g := float64(int64(w)*m.Offset + int64(i))
				x[i] = math.Sin(3*g + 1)
				y[i] = math.Cos(2*g - 1)
			}
			const a, b = 0.75, -1.25
			for i := range z {
				z[i] = a*x[i] + b*y[i]
			}
			mx, my, mz := make([]float64, n), make([]float64, n), make([]float64, n)
			c.ApplyStrided(x, mx, w)
			c.ApplyStrided(y, my, w)
			c.ApplyStrided(z, mz, w)
			var diff, scale float64
			for i := range mz {
				want := a*mx[i] + b*my[i]
				diff = math.Max(diff, math.Abs(mz[i]-want))
				scale = math.Max(scale, math.Abs(want))
			}
			diff = r.Allreduce(diff, sim.OpMax)
			scale = r.Allreduce(scale, sim.OpMax)
			if r.ID() == 0 {
				t.Logf("width %d: |M(ax+by) - (aMx+bMy)|_inf / |aMx+bMy|_inf = %.2e", w, diff/scale)
			}
			if diff > 1e-13*scale {
				t.Errorf("width %d: V-cycle not linear: deviation %v against scale %v", w, diff, scale)
			}
		}
	})
}

// TestCoarseCholeskyMatchesDistributedCG holds the coarsest level's dense
// Cholesky solve, field by field, to a distributed Jacobi-preconditioned
// CG solve run to 1e-13 on the same assembled operator
// (fem.AssembleScalarWithBC over the level's one-rank communicator):
// they must agree to 1e-10.
func TestCoarseCholeskyMatchesDistributedCG(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 3, true)
		h := New(m, fem.UnitDomain, layeredViscosity(m), Options{})
		c := h.PrecondBlock([]fem.ScalarBC{faceBC(0), faceBC(1), faceBC(2)})
		if !h.coarseHere {
			return // the coarsest level lives on rank 0 alone
		}
		l := len(h.levels) - 1
		lv := h.levels[l]
		w, nc := c.w, lv.mesh.NumOwned
		if p := lv.mesh.Rank.Size(); p != 1 {
			t.Fatalf("coarsest level on %d ranks, want 1", p)
		}
		b := c.b[l]
		for i := range b {
			b[i] = math.Sin(1.7*float64(i) + 0.3)
		}
		for _, e := range c.ops[l].ownFixed {
			b[e] = 0
		}
		c.coarseSolve(l)

		elemMat := func(ei int, _ [3]float64) [8][8]float64 {
			K := lv.kern[lv.kidx[ei]].Full()
			for p := range K {
				for q := range K[p] {
					K[p][q] *= lv.eta[ei]
				}
			}
			return K
		}
		lay := lv.mesh.Layout()
		bk, xk := la.NewVec(lay), la.NewVec(lay)
		for k := 0; k < w; k++ {
			A, _, _ := fem.AssembleScalarWithBC(lv.mesh, h.dom, elemMat, nil, c.coarseBC[k])
			for i := 0; i < nc; i++ {
				bk.Data[i] = b[w*i+k]
			}
			newDistributedRef(A, 1e-13, 500).Apply(bk, xk)
			var diff, scale float64
			for i := 0; i < nc; i++ {
				diff = math.Max(diff, math.Abs(c.x[l][w*i+k]-xk.Data[i]))
				scale = math.Max(scale, math.Abs(xk.Data[i]))
			}
			t.Logf("field %d: %d coarse nodes, |x_chol - x_cg|_inf / |x_cg|_inf = %.2e", k, nc, diff/scale)
			if diff > 1e-10*scale {
				t.Errorf("field %d: Cholesky coarse solve differs from distributed CG by %v (scale %v)", k, diff, scale)
			}
		}
	})
}

// TestNonFiniteViscosityReachesOutput: a NaN viscosity is a fault of the
// data, not a singular operator. The V-cycle sets up without panicking
// and its output is NaN, which the Stokes solve's caller reports as a
// non-finite verdict.
func TestNonFiniteViscosityReachesOutput(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 3, true)
		eta := make([]float64, len(m.Leaves))
		for i := range eta {
			eta[i] = math.NaN()
		}
		pc := New(m, fem.UnitDomain, eta, Options{}).Precond(agglomTestBC)
		x, y := la.NewVec(m.Layout()), la.NewVec(m.Layout())
		for i := range x.Data {
			x.Data[i] = 1
		}
		pc.Apply(x, y)
		nan := 0
		for _, v := range y.Data {
			if math.IsNaN(v) {
				nan++
			}
		}
		if r.AllreduceInt64(int64(nan)) == 0 {
			t.Errorf("rank %d: the V-cycle of a NaN viscosity returned finite values", r.ID())
		}
	})
}

// TestNeumannCoarsePanics: a scalar Precond with an empty Dirichlet set
// (the pure-Neumann box) has a singular coarsest operator. Setting it up
// must fail on the coarse rank with a message that names the level, the
// field and the pivot — not hang in a solve, and not return NaN.
func TestNeumannCoarsePanics(t *testing.T) {
	_, err := sim.NewWorld(2).Run(func(r *sim.Rank) {
		m := buildMesh(r, 3, true)
		pc := New(m, fem.UnitDomain, layeredViscosity(m), Options{}).Precond(fem.NoBC)
		x, y := la.NewVec(m.Layout()), la.NewVec(m.Layout())
		for i := range x.Data {
			x.Data[i] = 1
		}
		pc.Apply(x, y)
		for i, v := range y.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("rank %d: entry %d of the Neumann V-cycle is %v", r.ID(), i, v)
				return
			}
		}
	})
	var rf sim.ErrRankFailed
	if !errors.As(err, &rf) {
		t.Fatalf("pure-Neumann Precond set up without error (err %v)", err)
	}
	msg := strings.SplitN(rf.Op, "\n", 2)[0]
	t.Logf("rank %d: %s", rf.Rank, msg)
	for _, want := range []string{"coarsest level", "field 0", "pivot", "not positive definite"} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure message %q does not name %q", msg, want)
		}
	}
}
