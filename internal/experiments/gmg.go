package experiments

import (
	"fmt"
	"math"
	"time"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// GMGCase holds one refinement level's measurements on rank 0.
type GMGCase struct {
	Level              uint8
	Elems, Dof         int64
	AMGSetup, GMGSetup float64 // stokes.Assemble wall time (incl. precond build)
	AMGSolve, GMGSolve float64 // MINRES wall time
	AMGIters, GMGIters int
	GMGLevels          int
	CoarseNodes        int64
	AMGConv, GMGConv   bool
}

// FigGMGIterations compares the assembled-AMG and the matrix-free
// geometric-multigrid velocity preconditioners across refinement levels
// on the identical adapted mesh, viscosity field and matrix-free coupled
// operator: setup cost, MINRES iteration counts (the paper's algorithmic
// scalability claim: they must stay essentially level-independent) and
// end-to-end solve time. With GMG the solve assembles no fine-level CSR —
// only the hierarchy's coarsest level is assembled.
func FigGMGIterations(scale Scale) (*Table, []GMGCase) {
	p := 2
	// Start at level 3: below ~500 elements the saddle-point system is
	// pre-asymptotic and iteration counts still climb for every
	// preconditioner (the AMG baseline included).
	levels := []uint8{3, 4}
	if scale == Full {
		levels = []uint8{3, 4, 5}
	}
	t := &Table{
		Title: "GMG vs AMG velocity preconditioner across refinement levels",
		Header: []string{"level", "#elem", "#dof", "gmg levels", "coarse nodes",
			"amg setup s", "gmg setup s", "amg solve s", "gmg solve s", "iters amg/gmg"},
		Notes: []string{
			"identical adapted mesh (hanging nodes), two-layer 100:1 viscosity, matrix-free coupled apply in both runs",
			"gmg: matrix-free Chebyshev/Jacobi V-cycle on the octree level hierarchy; CSR assembled at the coarsest level only",
		},
	}
	var cases []GMGCase
	for _, lvl := range levels {
		var c GMGCase
		sim.Run(p, func(r *sim.Rank) {
			tr := newBox(r, lvl)
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
				for cc := 0; cc < 8; cc++ {
					force[ei][cc] = [3]float64{0, 0, math.Sin(math.Pi * x[0])}
				}
			}
			bc := stokes.FreeSlip(dom.Box)

			t0 := time.Now()
			amgSys := stokes.Assemble(m, dom, eta, force, bc, stokes.Options{MatrixFree: true})
			amgSetup := time.Since(t0).Seconds()
			t0 = time.Now()
			gmgSys := stokes.Assemble(m, dom, eta, force, bc, stokes.Options{
				MatrixFree: true, Precond: stokes.PrecondGMG,
			})
			gmgSetup := time.Since(t0).Seconds()

			solve1 := func(s *stokes.System) (float64, int, bool) {
				x0 := la.NewVec(s.Layout)
				r.Barrier()
				t0 := time.Now()
				res := s.Solve(x0, 1e-8, 2000)
				r.Barrier()
				return time.Since(t0).Seconds(), res.Iterations, res.Converged
			}
			amgSolve, amgIters, amgConv := solve1(amgSys)
			gmgSolve, gmgIters, gmgConv := solve1(gmgSys)

			ne := tr.NumGlobal() // collective
			if r.ID() == 0 {
				c = GMGCase{
					Level: lvl, Elems: ne, Dof: 4 * m.NGlobal,
					AMGSetup: amgSetup, GMGSetup: gmgSetup,
					AMGSolve: amgSolve, GMGSolve: gmgSolve,
					AMGIters: amgIters, GMGIters: gmgIters,
					GMGLevels:   gmgSys.GMGH.NumLevels(),
					CoarseNodes: gmgSys.GMGH.CoarseNodes(),
					AMGConv:     amgConv, GMGConv: gmgConv,
				}
			}
		})
		cases = append(cases, c)
		iters := fmt.Sprintf("%d/%d", c.AMGIters, c.GMGIters)
		if !c.AMGConv || !c.GMGConv {
			iters += "!"
		}
		t.Rows = append(t.Rows, []string{
			iN(int(c.Level)), i64(c.Elems), i64(c.Dof), iN(c.GMGLevels), i64(c.CoarseNodes),
			f3(c.AMGSetup), f3(c.GMGSetup), f3(c.AMGSolve), f3(c.GMGSolve), iters})
	}
	return t, cases
}
