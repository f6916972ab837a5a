package gmg

// Rank-subset agglomeration tests: the hierarchy must keep coarsening
// past the point where a fixed partition stalls (by repartitioning
// levels onto fewer ranks), the V-cycle across repartition gaps must
// stay symmetric (the gap transfers are transposes), and a Rebuild on
// an agglomerated hierarchy must be indistinguishable from a freshly
// built one.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

func agglomTestBC(x [3]float64) (float64, bool) {
	return 0, x[2] < 1e-12 // Dirichlet bottom face
}

// agglomTestEta is a partition-independent smooth viscosity field with a
// couple of decades of contrast.
func agglomTestEta(m *mesh.Mesh, seed float64) []float64 {
	dom := fem.UnitDomain
	out := make([]float64, len(m.Leaves))
	for ei, leaf := range m.Leaves {
		c := dom.ElemCenter(leaf)
		out[ei] = math.Exp(2 * math.Sin(7*c[0]+5*c[1]+3*c[2]+seed))
	}
	return out
}

// TestHierarchyAgglomerates: at 16 ranks on a 512-element uniform box,
// a fixed partition would stall at 64 elements (4 per rank, every
// family split across ranks at the next merge); agglomeration must
// carry the hierarchy down to CoarseElems on a shrinking rank subset,
// with the global accessors answering identically on member and idle
// ranks and the V-cycle staying symmetric across the gap.
func TestHierarchyAgglomerates(t *testing.T) {
	const p = 16
	sim.Run(p, func(r *sim.Rank) {
		m := mesh.Extract(forest.New(r, unitBox, 3), nil)
		h := New(m, fem.UnitDomain, agglomTestEta(m, 0), Options{})

		if h.Degenerate() {
			t.Errorf("rank %d: hierarchy degenerate: levels %v", r.ID(), h.LevelElems())
		}
		le := h.LevelElems()
		if le[0] != 512 {
			t.Errorf("fine level has %d elements, want 512", le[0])
		}
		if last := le[len(le)-1]; last > h.CoarseTarget() {
			t.Errorf("coarsest level has %d elements, want <= %d", last, h.CoarseTarget())
		}
		if cr := h.CoarseRanks(); cr >= p {
			t.Errorf("coarsest level still on %d ranks, want < %d", cr, p)
		}
		if h.NumLevels() != len(le) {
			t.Errorf("NumLevels %d != len(LevelElems) %d", h.NumLevels(), len(le))
		}
		// Exactly one of: local stack reaches the coarsest level, or it
		// ends above a repartition gap this rank is not in.
		if h.coarseHere == (h.partial != nil) {
			t.Errorf("rank %d: coarseHere=%v partial=%v — want exactly one",
				r.ID(), h.coarseHere, h.partial != nil)
		}
		agglomerated := false
		for _, rp := range h.rps {
			if rp != nil {
				agglomerated = true
			}
		}
		if h.coarseHere && !agglomerated {
			t.Errorf("rank %d holds the coarsest level but saw no repartition gap", r.ID())
		}

		// The V-cycle must be symmetric across the gap: <Mx, y> == <x, My>
		// to rounding, or MINRES/CG would silently lose its convergence
		// guarantee.
		pc := h.Precond(agglomTestBC)
		lay := m.Layout()
		x, y := la.NewVec(lay), la.NewVec(lay)
		mx, my := la.NewVec(lay), la.NewVec(lay)
		for i := range x.Data {
			g := float64(lay.Start() + int64(i))
			x.Data[i] = math.Sin(3*g + 1)
			y.Data[i] = math.Cos(2*g - 1)
		}
		pc.Apply(x, mx)
		pc.Apply(y, my)
		a, b := mx.Dot(y), x.Dot(my)
		scale := mx.Norm2() * y.Norm2()
		if math.Abs(a-b) > 1e-10*scale {
			t.Errorf("V-cycle not symmetric across agglomeration: <Mx,y>=%v <x,My>=%v", a, b)
		}
	})
}

// TestAgglomRebuildMatchesFresh: on an agglomerated hierarchy, Rebuild
// with a new viscosity must leave the preconditioner indistinguishable
// from a hierarchy freshly built for that viscosity — including the
// viscosity shipped across the gap and the coarsest-level factors.
func TestAgglomRebuildMatchesFresh(t *testing.T) {
	const p = 8
	sim.Run(p, func(r *sim.Rank) {
		m := mesh.Extract(forest.New(r, unitBox, 2), nil)
		dom := fem.UnitDomain
		eta1 := agglomTestEta(m, 0)
		eta2 := agglomTestEta(m, 2)

		reused := New(m, dom, eta1, Options{})
		pcReused := reused.Precond(agglomTestBC)
		reused.Rebuild(eta2)

		fresh := New(m, dom, eta2, Options{})
		pcFresh := fresh.Precond(agglomTestBC)

		if got, want := reused.CoarseRanks(), fresh.CoarseRanks(); got != want {
			t.Errorf("coarse ranks differ after rebuild: %d vs %d", got, want)
		}

		lay := m.Layout()
		x := la.NewVec(lay)
		for i := range x.Data {
			g := float64(lay.Start() + int64(i))
			x.Data[i] = math.Sin(5*g) + 0.3*math.Cos(g)
		}
		yr, yf := la.NewVec(lay), la.NewVec(lay)
		pcReused.Apply(x, yr)
		pcFresh.Apply(x, yf)
		diff := yr.Clone()
		diff.AXPY(-1, yf)
		if n, s := diff.NormInf(), yf.NormInf(); n > 1e-12*s {
			t.Errorf("rebuilt apply differs from fresh: %v (scale %v)", n, s)
		}
	})
}

// TestRepartIsExactPermutation pins the repartition gap's defining
// property, bitwise: NodeForward delivers each canonical node's value
// to its new owner unchanged, ElemForward does the same per element in
// the shadow's leaf order, and NodeBackward is the exact inverse — so
// the gap transfers are a permutation pair (Π, Πᵀ) and the V-cycle's
// symmetry survives agglomeration.
func TestRepartIsExactPermutation(t *testing.T) {
	const p = 16
	sim.Run(p, func(r *sim.Rank) {
		m := mesh.Extract(forest.New(r, unitBox, 2), nil) // 64 elements, 4 per rank
		rp, sm := buildRepart(m, 4)
		if (sm != nil) != (r.ID() < 4) {
			t.Fatalf("rank %d: shadow mesh presence wrong", r.ID())
		}

		// Position-keyed node fields, one and three per node: after
		// NodeForward, every shadow-owned node must hold exactly the
		// values its canonical position encodes.
		nodeVal := func(pos [3]uint32, c int) float64 {
			return float64(pos[0])*1e-2 + float64(pos[1])*1e3 + float64(pos[2])*1e8 + 0.125 + float64(c)
		}
		for _, w := range []int{1, 3} {
			src := make([]float64, w*m.NumOwned)
			for i, pos := range m.OwnedPos {
				for c := 0; c < w; c++ {
					src[w*i+c] = nodeVal(pos, c)
				}
			}
			var dst []float64
			if sm != nil {
				dst = make([]float64, w*sm.NumOwned)
			}
			rp.NodeForward(w, src, dst)
			if sm != nil {
				for i, pos := range sm.OwnedPos {
					for c := 0; c < w; c++ {
						if dst[w*i+c] != nodeVal(pos, c) {
							t.Fatalf("w=%d: shadow node %d (%v) field %d: got %v want %v",
								w, i, pos, c, dst[w*i+c], nodeVal(pos, c))
						}
					}
				}
			}

			// NodeBackward must invert NodeForward exactly.
			back := make([]float64, w*m.NumOwned)
			rp.NodeBackward(w, dst, back)
			for i := range back {
				if back[i] != src[i] {
					t.Fatalf("w=%d: round trip changed entry %d: %v -> %v", w, i, src[i], back[i])
				}
			}
		}

		// Per-element values must arrive keyed to the same octants.
		elemVal := func(o [4]uint32) float64 {
			return float64(o[0]) + float64(o[1])*1e3 + float64(o[2])*1e6 + float64(o[3])
		}
		eta := make([]float64, len(m.Leaves))
		for ei, leaf := range m.Leaves {
			eta[ei] = elemVal([4]uint32{leaf.X, leaf.Y, leaf.Z, uint32(leaf.Level)})
		}
		out := rp.ElemForward(eta)
		if sm == nil {
			if len(out) != 0 {
				t.Fatalf("non-member received %d element values", len(out))
			}
			return
		}
		if len(out) != len(sm.Leaves) {
			t.Fatalf("shadow got %d element values for %d leaves", len(out), len(sm.Leaves))
		}
		for ei, leaf := range sm.Leaves {
			if want := elemVal([4]uint32{leaf.X, leaf.Y, leaf.Z, uint32(leaf.Level)}); out[ei] != want {
				t.Fatalf("shadow element %d: got %v want %v", ei, out[ei], want)
			}
		}
	})
}

// TestSubsetReuseProperty exercises hierarchy reuse across many
// Rebuilds (the convection-loop pattern) on an agglomerated hierarchy:
// each Rebuild must match a one-shot build for that viscosity.
func TestSubsetReuseProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property loop")
	}
	const p = 8
	sim.Run(p, func(r *sim.Rank) {
		m := mesh.Extract(forest.New(r, unitBox, 2), nil)
		dom := fem.UnitDomain
		h := New(m, dom, agglomTestEta(m, 0), Options{})
		pc := h.Precond(agglomTestBC)
		lay := m.Layout()
		x := la.NewVec(lay)
		for i := range x.Data {
			g := float64(lay.Start() + int64(i))
			x.Data[i] = math.Cos(2 * g)
		}
		for trial := 1; trial <= 3; trial++ {
			eta := agglomTestEta(m, float64(trial))
			h.Rebuild(eta)
			want := New(m, dom, eta, Options{}).Precond(agglomTestBC)
			yr, yf := la.NewVec(lay), la.NewVec(lay)
			pc.Apply(x, yr)
			want.Apply(x, yf)
			diff := yr.Clone()
			diff.AXPY(-1, yf)
			if n, s := diff.NormInf(), yf.NormInf(); n > 1e-12*s {
				t.Errorf("trial %d: rebuilt apply differs from fresh: %v (scale %v)", trial, n, s)
			}
		}
	})
}
