package experiments

import (
	"fmt"
	"math"
	"time"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// matfreeCase holds one refinement level's measurements on rank 0.
type matfreeCase struct {
	elems, dof            int64
	asmApply, mfApply     float64 // seconds per operator apply
	asmSetup, mfSetup     float64 // Assemble wall time (incl. preconditioner)
	asmSolve, mfSolve     float64 // MINRES wall time
	asmIters, mfIters     int
	workers               int
	asmConverg, mfConverg bool
}

// FigMatFreeThroughput compares the assembled-CSR and the matrix-free
// coupled Stokes operator (package matfree) across refinement levels:
// setup cost, per-apply wall time, and end-to-end MINRES solve time on
// the identical adapted mesh, viscosity field and preconditioner. The
// matrix-free path additionally parallelizes its element loop over
// in-rank cores (workers column).
func FigMatFreeThroughput(scale Scale) *Table {
	p := 2
	levels := []uint8{2, 3, 4}
	applies := 40
	if scale == Full {
		levels = []uint8{3, 4, 5}
		applies = 80
	}
	t := &Table{
		Title: "Matrix-free vs assembled Stokes operator throughput",
		Header: []string{"level", "#elem", "#dof", "workers",
			"asm apply ms", "mf apply ms", "apply speedup",
			"asm setup s", "mf setup s", "asm solve s", "mf solve s", "iters asm/mf"},
		Notes: []string{
			"identical mesh (adaptive, hanging nodes), viscosity, rhs and AMG preconditioner in both modes",
			"mf = fused per-element kernel apply, ghost gather/scatter-add, in-rank worker pool",
		},
	}
	for _, lvl := range levels {
		var c matfreeCase
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
			asm := stokes.Assemble(m, dom, eta, force, bc, stokes.Options{})
			asmSetup := time.Since(t0).Seconds()
			t0 = time.Now()
			mf := stokes.Assemble(m, dom, eta, force, bc, stokes.Options{MatrixFree: true})
			mfSetup := time.Since(t0).Seconds()

			// Timed applies on a shared randomized vector (collective).
			x := la.NewVec(asm.Layout)
			for i := range x.Data {
				x.Data[i] = math.Sin(1.3 * float64(asm.Layout.Start()+int64(i)))
			}
			y := la.NewVec(asm.Layout)
			time1 := func(op krylov.Operator) float64 {
				op.Apply(x, y) // warm caches and exchange plans
				c := &krylov.Counted{Op: op}
				r.Barrier()
				for k := 0; k < applies; k++ {
					c.Apply(x, y)
				}
				r.Barrier()
				return c.Seconds / float64(c.Applies)
			}
			asmApply := time1(asm.Op)
			mfApply := time1(mf.Op)

			solve1 := func(s *stokes.System) (float64, krylov.Result) {
				x0 := la.NewVec(s.Layout)
				r.Barrier()
				t0 := time.Now()
				res := s.Solve(x0, 1e-8, 2000)
				r.Barrier()
				return time.Since(t0).Seconds(), res
			}
			asmSolve, ra := solve1(asm)
			mfSolve, rm := solve1(mf)

			ne := tr.NumGlobal() // collective
			if r.ID() == 0 {
				c = matfreeCase{
					elems: ne, dof: 4 * m.NGlobal,
					asmApply: asmApply, mfApply: mfApply,
					asmSetup: asmSetup, mfSetup: mfSetup,
					asmSolve: asmSolve, mfSolve: mfSolve,
					asmIters: ra.Iterations, mfIters: rm.Iterations,
					workers:    mf.MF.Workers(),
					asmConverg: ra.Converged, mfConverg: rm.Converged,
				}
			}
		})
		iters := fmt.Sprintf("%d/%d", c.asmIters, c.mfIters)
		if !c.asmConverg || !c.mfConverg {
			iters += "!"
		}
		t.Rows = append(t.Rows, []string{
			iN(int(lvl)), i64(c.elems), i64(c.dof), iN(c.workers),
			f3(c.asmApply * 1e3), f3(c.mfApply * 1e3), f2(c.asmApply / c.mfApply),
			f3(c.asmSetup), f3(c.mfSetup), f3(c.asmSolve), f3(c.mfSolve),
			iters})
	}
	return t
}
