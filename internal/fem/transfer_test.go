package fem

// Property tests for the grid-transfer pair used by geometric multigrid:
// on randomized adaptively refined trees, across several rank counts,
// restriction must be the exact transpose of prolongation, and
// prolongation must reproduce globally linear functions exactly —
// including across hanging-node interfaces. Every case runs with a fixed
// seed logged via t.Logf, so a CI failure is replayable verbatim.

import (
	"math"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// hash01 is a deterministic hash-based uniform in [0,1): the same value
// for the same (seed, key) on every rank, so randomized refinement and
// test vectors are globally consistent regardless of the partition.
func hash01(seed, key uint64) float64 {
	z := seed*0x9e3779b97f4a7c15 + key
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// randomMeshPair builds a randomly refined fine mesh and its coarsened
// multigrid companion (fine tree CoarsenedCopy), both extracted.
func randomMeshPair(r *sim.Rank, seed uint64) (fine, coarse *mesh.Mesh) {
	tr := forest.New(r, unitBox, 2)
	// Two rounds of randomized refinement keyed on the octant, creating
	// hanging faces and edges after balancing.
	for round := 0; round < 2; round++ {
		rd := uint64(round)
		tr.Refine(func(o forest.Octant) bool {
			return hash01(seed+rd, o.O.Key()) < 0.25
		})
		tr.Balance()
	}
	tr.Partition()
	fine = mesh.Extract(tr, nil)
	ctr, _ := tr.CoarsenedCopy()
	coarse = mesh.Extract(ctr, nil)
	return fine, coarse
}

// TestTransferTransposePair: <P xc, yf> must equal <xc, R yf> to rounding
// for randomized vectors — the restriction really is the transpose of the
// prolongation, including the distributed ghost scatter paths — at one
// and at three fields per node, and every field of the three-wide
// transfer must come out bit for bit as the scalar transfer of that
// field alone.
func TestTransferTransposePair(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, seed := range []uint64{11, 12, 13} {
			t.Logf("case: ranks=%d seed=%d", p, seed)
			sim.Run(p, func(r *sim.Rank) {
				fine, coarse := randomMeshPair(r, seed)
				tr := NewTransfer(fine, coarse)
				nc, nf := coarse.NumOwned, fine.NumOwned

				const w = 3
				xc := make([]float64, w*nc)
				for i := range xc {
					xc[i] = 2*hash01(seed, w*uint64(coarse.Offset)+uint64(i)) - 1
				}
				yf := make([]float64, w*nf)
				for i := range yf {
					yf[i] = 2*hash01(seed+7, w*uint64(fine.Offset)+uint64(i)) - 1
				}
				pxc, ryf := make([]float64, w*nf), make([]float64, w*nc)
				tr.Prolong(w, xc, pxc)
				tr.Restrict(w, yf, ryf)

				for c := 0; c < w; c++ {
					// Field c alone through the scalar transfer.
					xc1, yf1 := make([]float64, nc), make([]float64, nf)
					for i := range xc1 {
						xc1[i] = xc[w*i+c]
					}
					for i := range yf1 {
						yf1[i] = yf[w*i+c]
					}
					pxc1, ryf1 := make([]float64, nf), make([]float64, nc)
					tr.Prolong(1, xc1, pxc1)
					tr.Restrict(1, yf1, ryf1)
					var d1, d2 float64
					for i, v := range pxc1 {
						d1 += v * yf1[i]
						if pxc[w*i+c] != v {
							t.Errorf("ranks=%d seed=%d: field %d of the 3-wide Prolong differs from the scalar one at node %d: %v vs %v",
								p, seed, c, i, pxc[w*i+c], v)
							break
						}
					}
					for i, v := range ryf1 {
						d2 += xc1[i] * v
						if ryf[w*i+c] != v {
							t.Errorf("ranks=%d seed=%d: field %d of the 3-wide Restrict differs from the scalar one at node %d: %v vs %v",
								p, seed, c, i, ryf[w*i+c], v)
							break
						}
					}
					d1 = r.Allreduce(d1, sim.OpSum)
					d2 = r.Allreduce(d2, sim.OpSum)
					scale := math.Max(math.Abs(d1), 1)
					if math.Abs(d1-d2)/scale > 1e-12 {
						t.Errorf("ranks=%d seed=%d field=%d: transpose violated: <Pxc,yf>=%v <xc,Ryf>=%v", p, seed, c, d1, d2)
					}
				}
			})
		}
	}
}

// TestTransferReproducesLinears: interpolating a globally linear coarse
// nodal field must give exactly that linear at every fine node — the
// consistency property hanging-node constraints must not break.
func TestTransferReproducesLinears(t *testing.T) {
	lin := func(x [3]float64) float64 { return 0.5 + 2*x[0] - 3*x[1] + 1.25*x[2] }
	dom := UnitDomain
	for _, p := range []int{1, 2, 4} {
		for _, seed := range []uint64{21, 22, 23} {
			t.Logf("case: ranks=%d seed=%d", p, seed)
			sim.Run(p, func(r *sim.Rank) {
				fine, coarse := randomMeshPair(r, seed)
				tr := NewTransfer(fine, coarse)

				xc := la.NewVec(coarse.Layout())
				for i, pos := range coarse.OwnedPos {
					xc.Data[i] = lin(dom.Coord(pos))
				}
				xf := la.NewVec(fine.Layout())
				tr.Prolong(1, xc.Data, xf.Data)
				var hang int
				for ei := range fine.Rows {
					for c := 0; c < 8; c++ {
						if fine.Corner(ei, c).Hanging() {
							hang++
						}
					}
				}
				for i, pos := range fine.OwnedPos {
					want := lin(dom.Coord(pos))
					if math.Abs(xf.Data[i]-want) > 1e-12 {
						t.Errorf("ranks=%d seed=%d: linear not reproduced at %v: got %v want %v",
							p, seed, pos, xf.Data[i], want)
						return
					}
				}
				// The randomized trees must actually exercise hanging nodes
				// somewhere (with multiplicity over ranks this is robust).
				if total := fine.Rank.AllreduceInt64(int64(hang)); total == 0 && r.ID() == 0 {
					t.Errorf("ranks=%d seed=%d: no hanging corners — case too weak", p, seed)
				}
			})
		}
	}
}
