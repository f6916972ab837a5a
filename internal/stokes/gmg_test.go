package stokes

// Integration tests for the geometric-multigrid velocity preconditioner:
// combined with the matrix-free apply it must converge under strong
// viscosity contrast without assembling any fine-level CSR, with
// iteration counts that stay essentially level-independent.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// TestGMGViscosityContrast: the GMG-preconditioned solve must stay
// convergent under strong viscosity contrast.
func TestGMGViscosityContrast(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 2, false)
		dom := fem.UnitDomain
		eta := make([]float64, len(m.Leaves))
		for ei, leaf := range m.Leaves {
			zn := float64(leaf.Z) / float64(morton.RootLen)
			if zn >= 0.5 {
				eta[ei] = 1e4
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
		_, res := sys.Solve(1e-8, 2000)
		if !res.Converged {
			t.Errorf("GMG contrast solve failed: %v after %d its", res.Residual, res.Iterations)
		} else if r.ID() == 0 {
			t.Logf("contrast 1e4: %d iterations", res.Iterations)
		}
	})
}

// TestGMGIterationsLevelIndependent checks the headline claim of the
// geometric-multigrid preconditioner on the adapted box at levels 3 and 4
// (below ~500 elements the saddle-point system is still pre-asymptotic):
// with a two-layer 100:1 viscosity and the matrix-free apply, MINRES
// iterations grow by at most 20% from one level to the next, every solve
// converges, and the hierarchy keeps assembling only a small coarsest
// level as the fine mesh grows.
func TestGMGIterationsLevelIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("levels 3 and 4 run only without -short")
	}
	var iters []int
	for _, lvl := range []uint8{3, 4} {
		sim.Run(2, func(r *sim.Rank) {
			m := buildMesh(r, lvl, true)
			dom := fem.UnitDomain
			eta := make([]float64, len(m.Leaves))
			force := make([][8][3]float64, len(m.Leaves))
			for ei, leaf := range m.Leaves {
				eta[ei] = 1
				if float64(leaf.Z)/float64(morton.RootLen) > 0.5 {
					eta[ei] = 100
				}
				x := dom.ElemCenter(leaf)
				for c := 0; c < 8; c++ {
					force[ei][c] = [3]float64{0, 0, math.Sin(math.Pi * x[0])}
				}
			}
			sys := Assemble(m, dom, eta, force, FreeSlip(dom.Box), Options{})
			_, res := sys.Solve(1e-8, 2000)
			if r.ID() != 0 {
				return
			}
			t.Logf("level %d: %d fine nodes, %d gmg levels, %d coarse nodes, %d iterations",
				lvl, m.NGlobal, sys.GMGH.NumLevels(), sys.GMGH.CoarseNodes(), res.Iterations)
			if !res.Converged {
				t.Errorf("level %d: solve did not converge (%d iterations)", lvl, res.Iterations)
			}
			if sys.GMGH.CoarseNodes()*8 > m.NGlobal {
				t.Errorf("level %d: coarsest level too large (%d nodes vs %d fine)", lvl, sys.GMGH.CoarseNodes(), m.NGlobal)
			}
			iters = append(iters, res.Iterations)
		})
	}
	if float64(iters[1]) > 1.2*float64(iters[0]) {
		t.Errorf("GMG iterations grow too fast across levels: %d -> %d (> 20%%)", iters[0], iters[1])
	}
}
