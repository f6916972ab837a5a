package stokes

// Iteration-count regression test: MINRES counts for a fixed, fully
// deterministic problem family (hash-seeded blob viscosity over contrasts
// 1, 1e3, 1e6) are pinned with ±2 slack for both preconditioner paths.
// A preconditioner regression that slows solves now fails loudly instead
// of silently costing iterations. All arithmetic in the solve is
// deterministic (fixed reduction orders in sim collectives, and the
// matrix-free element loop accumulates in element order), so the counts
// are exactly reproducible for a given source tree.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// regressionProblem is the pinned problem of the iteration-count tests:
// level-2 adapted box, viscosity = contrast on a hash-selected quarter of
// the elements (seed 42), smooth buoyancy forcing, free-slip walls.
func regressionProblem(r *sim.Rank, contrast float64) (*mesh.Mesh, []float64, [][8][3]float64) {
	const seed = uint64(42)
	m := buildMesh(r, 2, true)
	dom := fem.UnitDomain
	eta := make([]float64, len(m.Leaves))
	for ei, leaf := range m.Leaves {
		if prand(seed, leaf.Key()) < 0.25 {
			eta[ei] = contrast
		} else {
			eta[ei] = 1
		}
	}
	force := make([][8][3]float64, len(m.Leaves))
	for ei := range force {
		x := dom.ElemCenter(m.Leaves[ei])
		for c := 0; c < 8; c++ {
			force[ei][c] = [3]float64{0, 0, math.Sin(math.Pi*x[0]) * math.Cos(math.Pi*x[2])}
		}
	}
	return m, eta, force
}

// regressionIters runs the pinned solve on 2 ranks at rtol 1e-8.
func regressionIters(t *testing.T, contrast float64, opts Options) int {
	t.Helper()
	iters := -1
	sim.Run(2, func(r *sim.Rank) {
		m, eta, force := regressionProblem(r, contrast)
		sys := Assemble(m, fem.UnitDomain, eta, force, FreeSlip(fem.UnitDomain.Box), opts)
		_, res := sys.Solve(1e-8, 4000)
		if !res.Converged {
			t.Errorf("contrast %g: MINRES failed (%v after %d its)", contrast, res.Residual, res.Iterations)
		}
		if r.ID() == 0 {
			iters = res.Iterations
		}
	})
	return iters
}

// TestIterationCountRegression pins the MINRES iteration counts (±2) for
// viscosity contrasts 1, 1e3, 1e6 under both velocity preconditioners.
// If a pin moves because of an intentional algorithmic change, re-record
// it here and say why in the commit.
func TestIterationCountRegression(t *testing.T) {
	pins := []struct {
		name     string
		opts     Options
		contrast float64
		want     int
	}{
		{"amg", Options{}, 1, 92},
		{"amg", Options{}, 1e3, 198},
		{"amg", Options{}, 1e6, 199},
		// Re-pinned 92/200/200 → 99/205/206: velocity preconditioner
		// changed: V(1,1) damped-Jacobi smoothing and an exact coarsest
		// solve; MINRES stops at the same relative tolerance.
		{"gmg", Options{MatrixFree: true, Precond: PrecondGMG}, 1, 99},
		{"gmg", Options{MatrixFree: true, Precond: PrecondGMG}, 1e3, 205},
		{"gmg", Options{MatrixFree: true, Precond: PrecondGMG}, 1e6, 206},
	}
	for _, pin := range pins {
		got := regressionIters(t, pin.contrast, pin.opts)
		t.Logf("seed 42 %s contrast %g: %d iterations (pinned %d)", pin.name, pin.contrast, got, pin.want)
		if got < pin.want-2 || got > pin.want+2 {
			t.Errorf("%s contrast %g: %d iterations, pinned %d (±2)", pin.name, pin.contrast, got, pin.want)
		}
	}
}
