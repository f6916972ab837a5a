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

// Only the fine level of a mapped hierarchy keeps element geometry: the
// fine mesh's cache (built first by its operator, as the Stokes solver
// does) feeds its kernels, and every coarser level evaluates each
// element's geometry transiently for its kernels and keeps none. The
// transient kernels equal those computed from a cache bit for bit. Every
// level keeps the packed upper triangle only, which is the whole kernel
// because the kernel is exactly symmetric: integrating both triangles
// entry by entry gives K[a][b] and K[b][a] bit for bit equal to the
// packed entry.
func TestCoarseLevelsKeepNoGeometry(t *testing.T) {
	shell := forest.CubedSphere(2)
	sim.Run(2, func(r *sim.Rank) {
		m := mesh.Extract(forest.New(r, shell, 2), mesh.NewShellGeometry(shell))
		fine := fem.ElemGeoms(m)
		h := NewHierarchy(m, fem.UnitDomain, Options{})
		if len(h.levels) < 2 {
			t.Errorf("rank %d: %d levels, want a coarse level", r.ID(), len(h.levels))
		}
		if g, ok := m.GeomCache.([]fem.ElemGeom); !ok || &g[0] != &fine[0] {
			t.Errorf("rank %d: the fine level's geometry cache was replaced", r.ID())
		}
		for l, lv := range h.levels {
			if l > 0 && lv.mesh.GeomCache != nil {
				t.Errorf("rank %d: level %d keeps geometry", r.ID(), l)
			}
			geos := fem.ElemGeoms(lv.mesh)
			kern, _ := fem.UnitStiffnessKernels(lv.mesh, fem.UnitDomain)
			for ei := range kern {
				K := &lv.kern[lv.kidx[ei]]
				if kern[ei] != *K {
					t.Errorf("rank %d level %d element %d: kernel from the cache differs", r.ID(), l, ei)
					return
				}
				full := fullStiffness(&geos[ei])
				for a := 0; a < 8; a++ {
					for b := 0; b < 8; b++ {
						pk := K[fem.SymIndex[a][b]]
						if math.Float64bits(full[a][b]) != math.Float64bits(full[b][a]) ||
							math.Float64bits(full[a][b]) != math.Float64bits(pk) {
							t.Errorf("rank %d level %d element %d: K[%d][%d] = %v, K[%d][%d] = %v, packed %v",
								r.ID(), l, ei, a, b, full[a][b], b, a, full[b][a], pk)
							return
						}
					}
				}
			}
		}
	})
}

// fullStiffness integrates every entry of the mapped element's unit
// stiffness matrix, both triangles, with the arithmetic of the packed
// kernels fem.UnitStiffnessKernels builds.
func fullStiffness(g *fem.ElemGeom) (K [8][8]float64) {
	var Q [8]fem.QGeom
	g.Grads(&Q)
	for qi := range Q {
		q := &Q[qi]
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				s := q.G[a][0]*q.G[b][0] + q.G[a][1]*q.G[b][1] + q.G[a][2]*q.G[b][2]
				K[a][b] += q.W * s
			}
		}
	}
	return K
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
				return fem.StiffnessGeom(fem.BrickElemGeom(hh), eta[ei])
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
		return fem.StiffnessGeom(fem.BrickElemGeom(hh), eta[ei])
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

// benchMeshes are the single-rank meshes the benchmarks run on: adapted
// boxes, whose kernels are shared per octree level and stay in cache,
// the uniform level-3 cubed-sphere shell, where every element streams
// its own kernel, and two meshes where many elements have a hanging
// corner: the adapted shell (half of them) and the front box at base
// level 3 (two thirds). Each comes with a Dirichlet set on its boundary.
func benchMeshes() []struct {
	name  string
	build func(r *sim.Rank) (*mesh.Mesh, fem.ScalarBC)
} {
	box := func(lvl uint8) func(r *sim.Rank) (*mesh.Mesh, fem.ScalarBC) {
		return func(r *sim.Rank) (*mesh.Mesh, fem.ScalarBC) { return buildMesh(r, lvl, true), zeroBC }
	}
	g := mesh.NewShellGeometry(forest.CubedSphere(2))
	shellBC := func(x [3]float64) (float64, bool) {
		rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
		return 0, rad < g.RInner+1e-9 || rad > g.ROuter-1e-9
	}
	return []struct {
		name  string
		build func(r *sim.Rank) (*mesh.Mesh, fem.ScalarBC)
	}{
		{"level3", box(3)},
		{"level4", box(4)},
		{"shell3", func(r *sim.Rank) (*mesh.Mesh, fem.ScalarBC) {
			conn := forest.CubedSphere(2)
			return mesh.Extract(forest.New(r, conn, 3), mesh.NewShellGeometry(conn)), shellBC
		}},
		{"shell-adapted", func(r *sim.Rank) (*mesh.Mesh, fem.ScalarBC) { return adaptedShell(r), shellBC }},
		{"front3", func(r *sim.Rank) (*mesh.Mesh, fem.ScalarBC) { return frontBox(r, 3), zeroBC }},
	}
}

// hangingShare is the share of m's elements with a hanging corner.
func hangingShare(m *mesh.Mesh) float64 {
	n := 0
	for _, row := range m.Rows {
		for _, s := range row {
			if s < 0 {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(m.Rows))
}

// BenchmarkGMGVcycle times one V-cycle application on a single rank at
// width 1 (one scalar field) and width 3 (the Stokes velocity block: the
// per-iteration preconditioner cost of the matrix-free solve). The
// width-3 cycle does three fields' arithmetic in one sweep over the
// level data; ns/op divided by the width is the cost per field.
func BenchmarkGMGVcycle(bench *testing.B) {
	for _, bm := range benchMeshes() {
		for _, w := range []int{1, 3} {
			bench.Run(fmt.Sprintf("%s/width%d", bm.name, w), func(bench *testing.B) {
				sim.Run(1, func(r *sim.Rank) {
					m, bc := bm.build(r)
					h := New(m, fem.UnitDomain, layeredViscosity(m), Options{})
					bcs := make([]fem.ScalarBC, w)
					for c := range bcs {
						bcs[c] = bc
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

// vecLoop3 is the AVX2 width-3 element loop (applyVec3) on amd64, nil
// elsewhere.
var vecLoop3 func(lv *level, x, acc []float64)

// BenchmarkLevelApply times one application of the finest level's
// operator — the element loop over the corner rows and unit kernels, the
// ghost exchange and the Dirichlet rows — and reports it per element,
// with the share of elements that have a hanging corner (hang-frac).
// On the shells every element reads its own 288-byte kernel. The
// width3-loop sub-benchmarks time the width-3 element loop alone: go is
// the generated Go loop, avx2 the vector loop (skipped without AVX2).
func BenchmarkLevelApply(bench *testing.B) {
	perElem := func(bench *testing.B, m *mesh.Mesh) {
		bench.ReportMetric(float64(bench.Elapsed().Nanoseconds())/float64(bench.N)/float64(len(m.Leaves)), "ns/elem")
		bench.ReportMetric(hangingShare(m), "hang-frac")
	}
	for _, bm := range benchMeshes() {
		for _, w := range []int{1, 3} {
			bench.Run(fmt.Sprintf("%s/width%d", bm.name, w), func(bench *testing.B) {
				sim.Run(1, func(r *sim.Rank) {
					m, bc := bm.build(r)
					h := New(m, fem.UnitDomain, layeredViscosity(m), Options{})
					bcs := make([]fem.ScalarBC, w)
					for c := range bcs {
						bcs[c] = bc
					}
					o := h.PrecondBlock(bcs).ops[0]
					x, y := make([]float64, w*m.NumOwned), make([]float64, w*m.NumOwned)
					for i := range x {
						x[i] = math.Sin(float64(i))
					}
					o.apply(x, y) // warm up
					bench.ResetTimer()
					for i := 0; i < bench.N; i++ {
						o.apply(x, y)
					}
					bench.StopTimer()
					perElem(bench, m)
				})
			})
		}
		for _, impl := range []string{"go", "avx2"} {
			bench.Run(fmt.Sprintf("%s/width3-loop/%s", bm.name, impl), func(bench *testing.B) {
				if impl == "avx2" && (vecLoop3 == nil || !fem.HasAVX2()) {
					bench.Skip("no AVX2 on this CPU")
				}
				sim.Run(1, func(r *sim.Rank) {
					m, _ := bm.build(r)
					h := New(m, fem.UnitDomain, layeredViscosity(m), Options{})
					lv := h.levels[0]
					x, acc := make([]float64, 3*m.NSlots()), make([]float64, 3*m.NSlots())
					for i := range x {
						x[i] = math.Sin(float64(i))
					}
					bench.ResetTimer()
					for i := 0; i < bench.N; i++ {
						if impl == "go" {
							lv.applyRange3(x, acc, 0, len(m.Leaves))
						} else {
							vecLoop3(lv, x, acc)
						}
					}
					bench.StopTimer()
					perElem(bench, m)
				})
			})
		}
	}
}
