package stokes

// Property tests for the persistent solver: a cached Setup + repeated
// Update must be numerically indistinguishable from a fresh one-shot
// Assemble for every viscosity field handed to it — across randomized
// viscosities, mesh adaptation cycles, rank counts, and both velocity
// preconditioners of the matrix-free operator. This is the guarantee that
// lets the convection time loop reuse the mesh-dependent solver half
// without changing the simulation.

import (
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// TestSetupUpdateMatchesAssemble drives one cached solver through
// several viscosity updates per mesh and several adaptation cycles
// (refine + rebalance + repartition, then a fresh Setup, as rhea.Adapt
// triggers), checking after every Update that its solution matches a
// from-scratch Assemble with identical inputs to 1e-10.
func TestSetupUpdateMatchesAssemble(t *testing.T) {
	ranks := []int{1, 2, 4}
	if testing.Short() {
		ranks = []int{1, 2}
	}
	// One subtest, named for the solver path it runs (the matrix-free
	// operator with the geometric multigrid velocity preconditioner).
	t.Run("matfree+gmg", func(t *testing.T) {
		for _, p := range ranks {
			p := p
			sim.Run(p, func(r *sim.Rank) {
				dom := fem.UnitDomain
				bc := FreeSlip(dom.Box)
				seed := uint64(1000*p) + 17

				// Adapt cycle 0: uniform level-2 tree; later cycles
				// refine a moving region like the convection loop does.
				tr := forest.New(r, unitBox, 2)
				for cycle := 0; cycle < 2; cycle++ {
					if cycle > 0 {
						cut := uint32(morton.RootLen >> uint(cycle+1))
						tr.Refine(func(o forest.Octant) bool {
							return o.O.X < cut && o.O.Z < cut
						})
						tr.Balance()
						tr.Partition()
					}
					m := mesh.Extract(tr, nil)
					// The mesh changed: the cached mesh-dependent half is
					// rebuilt exactly once per adaptation.
					sol := Setup(m, dom, bc, Options{})

					for round := 0; round < 2; round++ {
						rseed := seed + uint64(16*cycle+round)
						eta := randomViscosity(m, rseed)
						force := randomForce(m, rseed+5)
						sol.Update(eta, force)

						fresh := Assemble(m, dom, eta, force, bc, Options{})

						// Same rhs.
						if d := relDiff(sol.B, fresh.B); d > 1e-12 {
							t.Errorf("p=%d cycle=%d round=%d: rhs differs by %v",
								p, cycle, round, d)
						}
						// Same operator action on a randomized vector.
						x := la.NewVec(sol.Layout)
						for i := range x.Data {
							g := uint64(sol.Layout.Start() + int64(i))
							x.Data[i] = 2*prand(rseed+9, g) - 1
						}
						y1 := la.NewVec(sol.Layout)
						y2 := la.NewVec(fresh.Layout)
						sol.Op.Apply(x, y1)
						fresh.Op.Apply(x, y2)
						if d := relDiff(y1, y2); d > 1e-10 {
							t.Errorf("p=%d cycle=%d round=%d: apply differs by %v",
								p, cycle, round, d)
						}
						// Same solve on both paths.
						x1, r1 := sol.Solve(1e-9, 2000)
						x2, r2 := fresh.Solve(1e-9, 2000)
						if !r1.Converged || !r2.Converged {
							t.Fatalf("p=%d cycle=%d round=%d: solve failed (reuse %v fresh %v)",
								p, cycle, round, r1.Residual, r2.Residual)
						}
						if d := relDiff(x1, x2); d > 1e-10 {
							t.Errorf("p=%d cycle=%d round=%d: reuse solution differs from fresh assembly by %v",
								p, cycle, round, d)
						}
						if r1.Iterations != r2.Iterations {
							t.Errorf("p=%d cycle=%d round=%d: iteration counts diverge: %d vs %d",
								p, cycle, round, r1.Iterations, r2.Iterations)
						}
					}
				}
			})
		}
	})
}

// TestSetupRequiresUpdate pins the contract that Assemble == Setup;Update
// and that the first Update after Setup fully initializes the solver
// (the GMG numeric state is deferred until then).
func TestSetupRequiresUpdate(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 2, true)
		dom := fem.UnitDomain
		bc := FreeSlip(dom.Box)
		eta := randomViscosity(m, 3)
		force := randomForce(m, 4)
		sol := Setup(m, dom, bc, Options{})
		if sol.B != nil {
			t.Errorf("Setup built a right-hand side before Update")
		}
		sol.Update(eta, force)
		if sol.B == nil || sol.Op == nil {
			t.Fatalf("Update left the solver incomplete")
		}
		if _, res := sol.Solve(1e-8, 2000); !res.Converged {
			t.Errorf("solve after Setup+Update failed: %v", res.Residual)
		}
	})
}
