package field

import (
	"math"
	"math/rand"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Property: any random sequence of coarsen/refine/balance operations,
// each followed by a repartition, Project, Transfer and ToNodal on the new
// mesh, reproduces a linear field exactly at every node (trilinear
// transfer operators are exact on linears). Fixed per-case
// seeds, logged so failures are replayable. Odd seeds run on the unit
// box, even ones on a two-tree brick (linAt is one linear function across
// it), so projection across a tree boundary in the leaf order is covered
// too.
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
			m := mesh.Extract(tr, nil)
			T := linearField(m)
			for step := 0; step < 3; step++ {
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
				var out []*la.Vec
				m, out = carry(r, m, tr, []*la.Vec{T})
				T = out[0]
			}
			for i, pos := range m.OwnedPos {
				want := linAt(m.OwnedTree[i], [3]float64{float64(pos[0]), float64(pos[1]), float64(pos[2])})
				if diff := math.Abs(T.Data[i] - want); diff > 1e-6*(1+math.Abs(want)) {
					t.Errorf("seed %d: linear not reproduced at node %v of tree %d: got %v want %v",
						seed, pos, m.OwnedTree[i], T.Data[i], want)
					return
				}
			}
		})
	}
}
