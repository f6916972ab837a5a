package la

import (
	"testing"

	"rhea/internal/sim"
)

// Round trip: every rank gathers blocks for a set of remote indices, then
// scatter-adds a known contribution back; owners must see the sum of all
// referencing ranks' contributions. Width 1 runs Gather and ScatterAdd,
// width 3 GatherBlock and ScatterAddBlock over the same kind of plan.
func TestGhostExchangeGatherScatter(t *testing.T) {
	for _, tc := range []struct{ p, block int }{{2, 1}, {4, 1}, {2, 3}, {4, 3}} {
		p, block := tc.p, tc.block
		sim.Run(p, func(r *sim.Rank) {
			l := NewLayout(r, 5+r.ID()) // uneven blocks
			owned := make([]float64, l.Local()*block)
			for i := 0; i < l.Local(); i++ {
				g := l.Start() + int64(i)
				for c := 0; c < block; c++ {
					owned[i*block+c] = float64(100*g + int64(c))
				}
			}
			// Want every other rank's first two indices (with a duplicate).
			var want []int64
			for rk := 0; rk < p; rk++ {
				if rk == r.ID() {
					continue
				}
				want = append(want, l.Offsets[rk], l.Offsets[rk], l.Offsets[rk]+1)
			}
			gx := NewGhostExchange(l, want)
			gather, scatterAdd := gx.Gather, gx.ScatterAdd
			if block != 1 {
				gather = func(owned, ghost []float64) { gx.GatherBlock(block, owned, ghost) }
				scatterAdd = func(ghost, owned []float64) { gx.ScatterAddBlock(block, ghost, owned) }
			}
			if gx.NumGhosts() != 2*(p-1) {
				t.Errorf("ghost count %d, want %d", gx.NumGhosts(), 2*(p-1))
			}
			ghost := make([]float64, gx.NumGhosts()*block)
			gather(owned, ghost)
			for s, g := range gx.Ghosts() {
				for c := 0; c < block; c++ {
					if ghost[s*block+c] != float64(100*g+int64(c)) {
						t.Errorf("p=%d width %d: ghost %d comp %d = %v, want %v",
							p, block, g, c, ghost[s*block+c], float64(100*g+int64(c)))
					}
				}
			}
			// Scatter back a contribution of 1 per component per referencing
			// rank: owners of the first two local indices receive p-1 each.
			add := make([]float64, len(ghost))
			for i := range add {
				add[i] = 1
			}
			acc := make([]float64, len(owned))
			scatterAdd(add, acc)
			for i := 0; i < l.Local(); i++ {
				wantV := 0.0
				if i < 2 {
					wantV = float64(p - 1)
				}
				for c := 0; c < block; c++ {
					if acc[i*block+c] != wantV {
						t.Errorf("p=%d width %d: scatter-add at local %d comp %d = %v, want %v",
							p, block, i, c, acc[i*block+c], wantV)
					}
				}
			}
		})
	}
}
