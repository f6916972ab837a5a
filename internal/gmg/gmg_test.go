package gmg

import (
	"fmt"
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// unitBox is the one-tree connectivity of the unit cube.
var unitBox = forest.BrickConnectivity(1, 1, 1)

// buildMesh makes an adaptively refined, balanced, partitioned test mesh.
func buildMesh(r *sim.Rank, level uint8, adapt bool) *mesh.Mesh {
	tr := forest.New(r, unitBox, level)
	if adapt {
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
		tr.Balance()
		tr.Partition()
	}
	return mesh.Extract(tr, nil)
}

// layeredViscosity is a 100:1 two-layer field keyed on element position.
func layeredViscosity(m *mesh.Mesh) []float64 {
	out := make([]float64, len(m.Leaves))
	for ei, leaf := range m.Leaves {
		if float64(leaf.Z)/float64(morton.RootLen) > 0.5 {
			out[ei] = 100
		} else {
			out[ei] = 1
		}
	}
	return out
}

func zeroBC(x [3]float64) (float64, bool) {
	for a := 0; a < 3; a++ {
		if x[a] == 0 || x[a] == 1 {
			return 0, true
		}
	}
	return 0, false
}

// The hierarchy must coarsen geometrically down to the configured coarse
// size, with element counts decaying — strictly, except across a
// repartition gap, whose shadow level holds the same octants on fewer
// ranks (here the final gap that gathers the coarsest level onto one
// rank) — and the coarsest level small enough that its dense factor is
// negligible next to the fine mesh.
func TestHierarchyShape(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 3, true)
		h := New(m, fem.UnitDomain, layeredViscosity(m), Options{})
		elems := h.LevelElems()
		if r.ID() == 0 {
			t.Logf("levels %d elems %v coarse nodes %d", h.NumLevels(), elems, h.CoarseNodes())
		}
		if h.NumLevels() < 3 {
			t.Errorf("expected >= 3 levels from a level-3+1 tree, got %d", h.NumLevels())
		}
		if r.ID() == 0 { // rank 0 is in every subset: its stack is the whole hierarchy
			for l := 1; l < len(elems); l++ {
				if gap := h.rps[l-1] != nil; gap && elems[l] != elems[l-1] {
					t.Errorf("repartition gap %d changed the element count: %v", l, elems)
				} else if !gap && elems[l] >= elems[l-1] {
					t.Errorf("level %d not coarser: %v", l, elems)
				}
			}
		}
		if h.CoarseRanks() != 1 {
			t.Errorf("coarsest level on %d ranks, want 1", h.CoarseRanks())
		}
		if elems[len(elems)-1] > 64 {
			t.Errorf("coarsest level too large: %v", elems)
		}
	})
}

// The level operator must match the assembled constrained scalar matrix
// (fem.AssembleScalar) to rounding, and the matrix-free diagonal must
// match the assembled diagonal exactly — on a hanging-node mesh across
// ranks.
func TestLevelOperatorMatchesAssembled(t *testing.T) {
	for _, p := range []int{1, 3} {
		sim.Run(p, func(r *sim.Rank) {
			m := buildMesh(r, 2, true)
			dom := fem.UnitDomain
			eta := layeredViscosity(m)
			h := New(m, dom, eta, Options{})
			bcd := fem.GatherBC(m, dom, zeroBC)[0]
			op := newLevelOp(h.levels[0], []*fem.BCData{bcd})

			stiff := func(ei int, hh [3]float64) [8][8]float64 {
				return fem.StiffnessBrick(hh, eta[ei])
			}
			A, _, _ := fem.AssembleScalar(m, dom, stiff, nil, zeroBC)

			x := la.NewVec(m.Layout())
			for i := range x.Data {
				x.Data[i] = math.Sin(0.9 * float64(m.Offset+int64(i)))
			}
			y1, y2 := la.NewVec(m.Layout()), la.NewVec(m.Layout())
			op.Apply(x, y1)
			A.Apply(x, y2)
			for i := range y1.Data {
				if d := math.Abs(y1.Data[i] - y2.Data[i]); d > 1e-10 {
					t.Fatalf("p=%d: apply mismatch at %d: %v vs %v", p, i, y1.Data[i], y2.Data[i])
				}
			}

			diag := fem.AssembleScalarDiag(m, dom, stiff, bcd)
			ad := A.Diag()
			for i := range diag.Data {
				if d := math.Abs(diag.Data[i] - ad.Data[i]); d > 1e-10 {
					t.Fatalf("p=%d: diag mismatch at %d: %v vs %v", p, i, diag.Data[i], ad.Data[i])
				}
			}
		})
	}
}

// The V-cycle preconditioner must be symmetric (<Mx,y> == <x,My>) — the
// property MINRES needs — and accelerate CG well beyond Jacobi on a
// variable-viscosity Poisson problem: one damped-Jacobi sweep per side
// takes 8 iterations where Jacobi-CG takes 19 (at least 2x fewer).
func TestVcyclePreconditionsCG(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 3, true)
		dom := fem.UnitDomain
		eta := layeredViscosity(m)
		h := New(m, dom, eta, Options{})
		M := h.Precond(zeroBC)
		bcd := fem.GatherBC(m, dom, zeroBC)[0]
		op := newLevelOp(h.levels[0], []*fem.BCData{bcd})

		// Symmetry.
		x, y := la.NewVec(m.Layout()), la.NewVec(m.Layout())
		for i := range x.Data {
			g := float64(m.Offset + int64(i))
			x.Data[i] = math.Sin(g)
			y.Data[i] = math.Cos(2 * g)
		}
		mx, my := la.NewVec(m.Layout()), la.NewVec(m.Layout())
		M.Apply(x, mx)
		M.Apply(y, my)
		d1, d2 := mx.Dot(y), my.Dot(x)
		if math.Abs(d1-d2)/math.Max(math.Abs(d1), 1e-30) > 1e-10 {
			t.Errorf("V-cycle not symmetric: %v vs %v", d1, d2)
		}

		// CG convergence with V-cycle vs Jacobi.
		b := la.NewVec(m.Layout())
		for i, pos := range m.OwnedPos {
			c := dom.Coord(pos)
			b.Data[i] = math.Sin(math.Pi * c[0] * c[1] * c[2])
			if _, is := zeroBC(c); is {
				b.Data[i] = 0
			}
		}
		x0 := la.NewVec(m.Layout())
		res := krylov.CG(op, M, b, x0, 1e-8, 100)
		if !res.Converged {
			t.Fatalf("CG with GMG V-cycle did not converge: %v", res.Residual)
		}
		x0.Zero()
		jac := krylov.DiagOp(mustDinv(h, bcd, m, dom, eta))
		resJ := krylov.CG(op, jac, b, x0, 1e-8, 2000)
		if r.ID() == 0 {
			t.Logf("CG iterations: gmg=%d jacobi=%d", res.Iterations, resJ.Iterations)
		}
		if res.Iterations*2 > resJ.Iterations {
			t.Errorf("V-cycle not accelerating: gmg %d vs jacobi %d", res.Iterations, resJ.Iterations)
		}
	})
}

func mustDinv(h *Hierarchy, bcd *fem.BCData, m *mesh.Mesh, dom fem.Domain, eta []float64) *la.Vec {
	diag := fem.AssembleScalarDiag(m, dom, func(ei int, hh [3]float64) [8][8]float64 {
		return fem.StiffnessBrick(hh, eta[ei])
	}, bcd)
	dinv := la.NewVec(diag.Layout)
	for i, v := range diag.Data {
		if v != 0 {
			dinv.Data[i] = 1 / v
		} else {
			dinv.Data[i] = 1
		}
	}
	return dinv
}

// BenchmarkGMGVcycle times one V-cycle application on a single rank at
// width 1 (one scalar field) and width 3 (the Stokes velocity block: the
// per-iteration preconditioner cost of the matrix-free solve). The
// width-3 cycle does three fields' arithmetic in one sweep over the
// level data; ns/op divided by the width is the cost per field.
func BenchmarkGMGVcycle(bench *testing.B) {
	for _, lvl := range []uint8{3, 4} {
		for _, w := range []int{1, 3} {
			bench.Run(fmt.Sprintf("level%d/width%d", lvl, w), func(bench *testing.B) {
				sim.Run(1, func(r *sim.Rank) {
					m := buildMesh(r, lvl, true)
					h := New(m, fem.UnitDomain, layeredViscosity(m), Options{})
					bcs := make([]fem.ScalarBC, w)
					for c := range bcs {
						bcs[c] = zeroBC
					}
					M := h.PrecondBlock(bcs)
					x, y := make([]float64, w*m.NumOwned), make([]float64, w*m.NumOwned)
					for i := range x {
						x[i] = math.Sin(float64(i))
					}
					M.ApplyStrided(x, y, w) // warm up
					bench.ResetTimer()
					for i := 0; i < bench.N; i++ {
						M.ApplyStrided(x, y, w)
					}
					bench.StopTimer()
					bench.ReportMetric(float64(int64(w)*m.NGlobal), "dofs")
				})
			})
		}
	}
}
