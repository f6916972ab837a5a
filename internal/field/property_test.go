package field

import (
	"math/rand"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Property: any random sequence of coarsen/refine/balance operations,
// followed by ProjectData and a repartition Transfer, reproduces a linear
// field exactly at every element corner (trilinear transfer operators are
// exact on linears). Fixed per-case seeds, logged so failures are
// replayable. Odd seeds run on the unit box, even ones on a two-tree
// brick (the field is linear in each tree's own frame), so projection
// across a tree boundary in the leaf order is covered too.
func TestPropertyPipelineExactOnLinear(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		seed := seed
		conn := unitBox
		if seed%2 == 0 {
			conn = forest.BrickConnectivity(2, 1, 1)
		}
		t.Logf("case: seed=%d ranks=3 trees=%d", seed, conn.NumTrees())
		sim.Run(3, func(r *sim.Rank) {
			rng := rand.New(rand.NewSource(seed)) // same on all ranks
			tr := forest.New(r, conn, 2)
			data := []ElemData{linearData(tr.Leaves())}
			for step := 0; step < 3; step++ {
				old := append([]forest.Octant(nil), tr.Leaves()...)
				cut := uint32(rng.Intn(morton.RootLen))
				axis := rng.Intn(3)
				sel := func(o morton.Octant) bool {
					return [3]uint32{o.X, o.Y, o.Z}[axis] < cut
				}
				if rng.Intn(2) == 0 {
					tr.Refine(func(o forest.Octant) bool { return o.O.Level < 5 && sel(o.O) })
				} else {
					tr.Coarsen(func(p forest.Octant) bool {
						return p.O.Level >= 1 && sel(p.O)
					})
				}
				tr.Balance()
				data = ProjectData(old, tr.Leaves(), data)
				rt := tr.Partition()
				data = Transfer(r, rt, data)
			}
			for ei, fo := range tr.Leaves() {
				o := fo.O
				h := o.Len()
				for c := 0; c < 8; c++ {
					p := [3]float64{float64(o.X), float64(o.Y), float64(o.Z)}
					if c&1 != 0 {
						p[0] += float64(h)
					}
					if c&2 != 0 {
						p[1] += float64(h)
					}
					if c&4 != 0 {
						p[2] += float64(h)
					}
					want := lin(p)
					diff := data[0][ei][c] - want
					if diff < 0 {
						diff = -diff
					}
					tol := 1e-6 * (1 + want)
					if want < 0 {
						tol = 1e-6 * (1 - want)
					}
					if diff > tol {
						t.Errorf("seed %d: linear not reproduced at element %d corner %d: got %v want %v",
							seed, ei, c, data[0][ei][c], want)
						return
					}
				}
			}
		})
	}
}
