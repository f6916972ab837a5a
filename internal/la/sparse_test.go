package la

import (
	"runtime"
	"testing"

	"rhea/internal/sim"
)

// TestGhostExchangeMsgsAreSparse is the acceptance test for the sparse
// neighbor exchange: with a localized reference pattern (each rank only
// references its ring neighbors' indices), one Gather costs each rank
// O(neighbors) user messages — not the O(P) of the old dense Alltoall,
// which sent P-1 messages per rank no matter how many were empty.
func TestGhostExchangeMsgsAreSparse(t *testing.T) {
	const p = 48
	sim.Run(p, func(r *sim.Rank) {
		l := NewLayout(r, 4)
		next := (r.ID() + 1) % p
		prev := (r.ID() + p - 1) % p
		// Reference one index from each ring neighbor.
		want := []int64{l.Offsets[next], l.Offsets[prev] + 1}
		gx := NewGhostExchange(l, want)
		if n := gx.NumNeighbors(); n != 2 {
			t.Errorf("rank %d: %d plan neighbors, want 2", r.ID(), n)
		}
		owned := make([]float64, l.Local())
		for i := range owned {
			owned[i] = float64(l.Start() + int64(i))
		}
		ghost := make([]float64, gx.NumGhosts())

		pre := r.Stats()
		gx.Gather(owned, ghost)
		d := r.Stats()
		um := d.UserMsgs - pre.UserMsgs
		if um != 2 {
			t.Errorf("rank %d: one Gather sent %d user messages, want 2 (O(neighbors))", r.ID(), um)
		}
		// The old dense exchange cost P-1 messages per rank per round.
		if um >= p-1 {
			t.Errorf("rank %d: %d messages is not better than the dense %d", r.ID(), um, p-1)
		}
		if cm := d.CollMsgs - pre.CollMsgs; cm != 0 {
			t.Errorf("rank %d: Gather spent %d collective transport messages, want 0 (plan reuse)", r.ID(), cm)
		}
		for s, g := range gx.Ghosts() {
			if ghost[s] != float64(g) {
				t.Errorf("rank %d: ghost %d = %v", r.ID(), g, ghost[s])
			}
		}

		// ScatterAdd is the transpose: same sparse message count.
		pre = r.Stats()
		add := make([]float64, len(ghost))
		for i := range add {
			add[i] = 1
		}
		acc := make([]float64, len(owned))
		gx.ScatterAdd(add, acc)
		if um := r.Stats().UserMsgs - pre.UserMsgs; um != 2 {
			t.Errorf("rank %d: one ScatterAdd sent %d user messages, want 2", r.ID(), um)
		}
	})
}

// TestMatApplySparseGhosts checks that the assembled-matrix ghost update
// also exchanges O(neighbors) messages per Apply: a tridiagonal-coupled
// layout only talks to ring neighbors regardless of P.
func TestMatApplySparseGhosts(t *testing.T) {
	const p = 24
	sim.Run(p, func(r *sim.Rank) {
		l := NewLayout(r, 3)
		m := NewMat(l)
		n := l.N()
		for i := 0; i < l.Local(); i++ {
			g := l.Start() + int64(i)
			m.AddValue(g, g, 2)
			if g > 0 {
				m.AddValue(g, g-1, -1)
			}
			if g < n-1 {
				m.AddValue(g, g+1, -1)
			}
		}
		m.Assemble()
		x, y := NewVec(l), NewVec(l)
		x.Set(1)
		pre := r.Stats()
		m.Apply(x, y)
		um := r.Stats().UserMsgs - pre.UserMsgs
		// Interior ranks serve both ring neighbors; never anywhere near P-1.
		if um > 2 {
			t.Errorf("rank %d: Apply sent %d user messages, want <= 2", r.ID(), um)
		}
		// Laplacian row sums: 0 in the interior, 1 at the global ends.
		for i, v := range y.Data {
			g := l.Start() + int64(i)
			wantV := 0.0
			if g == 0 || g == n-1 {
				wantV = 1
			}
			if v != wantV {
				t.Errorf("rank %d: y[%d] = %v, want %v", r.ID(), g, v, wantV)
			}
		}
	})
}

// TestMatApplyAllocFree pins that Apply allocates nothing in steady
// state: the matrix keeps one GhostExchange over its off-rank columns,
// whose payload tables and pooled buffers are reused, where it used to
// build two fresh payload slices per call. Alone in its world a rank
// allocates exactly nothing; with neighbours the count over all ranks
// stays below one per message (headroom for a pool refill after a GC
// cycle and for the measurement's own barriers), as for every plan-based
// exchange.
func TestMatApplyAllocFree(t *testing.T) {
	laplace := func(r *sim.Rank) (*Mat, *Vec, *Vec) {
		l := NewLayout(r, 50)
		m := NewMat(l)
		n := l.N()
		for i := 0; i < l.Local(); i++ {
			g := l.Start() + int64(i)
			m.AddValue(g, g, 2)
			if g > 0 {
				m.AddValue(g, g-1, -1)
			}
			if g < n-1 {
				m.AddValue(g, g+1, -1)
			}
		}
		m.Assemble()
		x, y := NewVec(l), NewVec(l)
		x.Set(1)
		return m, x, y
	}
	sim.Run(1, func(r *sim.Rank) {
		m, x, y := laplace(r)
		if n := testing.AllocsPerRun(20, func() { m.Apply(x, y) }); n != 0 {
			t.Errorf("1 rank: Apply allocates %v times per call, want 0", n)
		}
	})
	sim.Run(3, func(r *sim.Rank) {
		m, x, y := laplace(r)
		m.Apply(x, y)
		const calls = 50
		var m0, m1 runtime.MemStats
		pre := r.Stats().UserMsgs
		r.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m0)
		}
		r.Barrier()
		for i := 0; i < calls; i++ {
			m.Apply(x, y)
		}
		r.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
		}
		allocs := r.Allreduce(float64(m1.Mallocs-m0.Mallocs), sim.OpSum) / calls
		msgs := r.Allreduce(float64(r.Stats().UserMsgs-pre), sim.OpSum) / calls
		if r.ID() == 0 {
			t.Logf("3 ranks: %.2f allocations per Apply over all ranks (%.0f messages)", allocs, msgs)
		}
		if allocs > msgs {
			t.Errorf("3 ranks: Apply allocates %.2f times per call over all ranks, want <= %.0f (1 per message)", allocs, msgs)
		}
	})
}
