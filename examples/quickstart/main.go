// Quickstart: the smallest end-to-end use of the library. It builds a
// distributed octree (the unit cube as a one-tree forest), refines it
// adaptively, enforces the 2:1 balance, extracts a finite-element mesh
// with hanging-node constraints, and solves a variable-coefficient
// Poisson problem with CG preconditioned by algebraic multigrid — the
// building blocks every larger application in this repository composes.
package main

import (
	"fmt"
	"math"

	"rhea/internal/amg"
	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

func main() {
	const ranks = 4
	sim.Run(ranks, func(r *sim.Rank) {
		// 1. A uniform level-3 octree (512 elements), partitioned along
		//    the space-filling curve.
		tree := forest.New(r, forest.BrickConnectivity(1, 1, 1), 3)

		// 2. Refine near a spherical front, then restore the 2:1 balance
		//    and rebalance the partition.
		tree.Refine(func(o forest.Octant) bool {
			c := 0.5 * float64(morton.RootLen)
			x := float64(o.O.X) - c
			y := float64(o.O.Y) - c
			z := float64(o.O.Z) - c
			rad := math.Sqrt(x*x+y*y+z*z) / c
			return rad > 0.4 && rad < 0.8
		})
		added := r.AllreduceInt64(int64(tree.Balance()))
		tree.Partition()

		// 3. Extract the mesh: global node numbering plus hanging-node
		//    interpolation constraints (nil geometry: axis-aligned box).
		m := mesh.Extract(tree, nil)
		st := m.GlobalStats()
		if r.ID() == 0 {
			fmt.Printf("mesh: %d elements, %d nodes, %d hanging corners "+
				"(balance added %d leaves)\n",
				st.Elements, st.Nodes, st.HangingLocal, added)
		}

		// 4. Assemble -div(k grad u) = 1 with u = 0 on the boundary and a
		//    coefficient jump, and solve with CG + AMG.
		dom := fem.UnitDomain
		bc := func(x [3]float64) (float64, bool) {
			onB := x[0] == 0 || x[1] == 0 || x[2] == 0 || x[0] == 1 || x[1] == 1 || x[2] == 1
			return 0, onB
		}
		A, b, _ := fem.AssembleScalar(m, dom,
			func(ei int, h [3]float64) [8][8]float64 {
				k := 1.0
				if dom.ElemCenter(m.Leaves[ei])[2] > 0.5 {
					k = 100.0
				}
				return fem.StiffnessBrick(h, k)
			},
			func(ei int, h [3]float64) [8]float64 {
				lm := fem.LumpedMassBrick(h, 1)
				return lm // source f = 1
			}, bc)
		x := la.NewVec(m.Layout())
		res := krylov.CG(A, amg.NewBlockJacobi(A, amg.Options{}), b, x, 1e-10, 500)

		mx := x.NormInf() // collective
		if r.ID() == 0 {
			fmt.Printf("CG+AMG: converged=%v in %d iterations, max(u)=%.5f\n",
				res.Converged, res.Iterations, mx)
		}
	})
}
