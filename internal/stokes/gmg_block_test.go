package stokes

// Tests of the blocked velocity V-cycle as the Stokes preconditioner
// uses it: all three components in one width-3 gmg.VCycle must come out
// bit for bit as three scalar (width-1) cycles would — on meshes with
// hanging nodes, three different Dirichlet sets, rotated-frame slip
// boundaries and repartition gaps that leave ranks idle — stay symmetric,
// and cost the messages of one cycle, not three.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/gmg"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// contrastViscosity is a partition-independent 1e4-contrast field: a
// sharp jump across the plane x+y+z = s0 under a smooth modulation.
func contrastViscosity(m *mesh.Mesh, dom fem.Domain, s0 float64) []float64 {
	out := make([]float64, len(m.Leaves))
	for ei, leaf := range m.Leaves {
		var c [3]float64
		if m.X != nil {
			for k := 0; k < 8; k++ {
				for d := 0; d < 3; d++ {
					c[d] += m.X[ei][k][d] / 8
				}
			}
		} else {
			c = dom.ElemCenter(leaf)
		}
		out[ei] = 1 + 0.5*math.Sin(5*c[0]-3*c[1]+2*c[2])
		if c[0]+c[1]+c[2] > s0 {
			out[ei] *= 1e4
		}
	}
	return out
}

// blockCase is one mesh + boundary configuration of the width tests.
type blockCase struct {
	name  string
	build func(r *sim.Rank) *mesh.Mesh
	bc    VelBC
	slip  SlipNormal // nil: no rotated-frame boundary
	s0    float64
}

func blockCases() []blockCase {
	conn := forest.CubedSphere(2)
	g := mesh.NewShellGeometry(conn)
	return []blockCase{
		{
			// Adapted box: hanging nodes, and FreeSlip constrains a
			// different face pair per component — three Dirichlet sets.
			name:  "box",
			build: func(r *sim.Rank) *mesh.Mesh { return buildMesh(r, 3, true) },
			bc:    FreeSlip(fem.UnitDomain.Box),
			s0:    1.4,
		},
		{
			// Cubed-sphere shell, no-slip bottom, free-slip top in rotated
			// frames, refined in every third tree (hanging nodes across
			// tree boundaries).
			name: "shell",
			build: func(r *sim.Rank) *mesh.Mesh {
				f := forest.New(r, conn, 1)
				f.Refine(func(o forest.Octant) bool { return o.Tree%3 == 0 })
				f.Balance()
				f.Partition()
				return mesh.Extract(f, g)
			},
			bc:   RadialNoSlipInner(g.RInner, g.ROuter),
			slip: ShellSlipNormals(g.RInner, g.ROuter, false, true),
			s0:   0.3,
		},
	}
}

// TestBlockedVcycleMatchesScalarBitwise is the width property: after a
// Rebuild with a 1e4-contrast viscosity, on hierarchies forced through a
// repartition gap (AgglomThreshold raised, so at 2 and 4 ranks some
// ranks idle below it), the width-3 cycle's output equals three width-1
// cycles' entry for entry, bit for bit, and the blocked preconditioner
// is symmetric to 1e-12.
func TestBlockedVcycleMatchesScalarBitwise(t *testing.T) {
	for _, tc := range blockCases() {
		for _, p := range []int{1, 2, 4} {
			tc, p := tc, p
			sim.Run(p, func(r *sim.Rank) {
				m := tc.build(r)
				dom := fem.UnitDomain
				s := Setup(m, dom, tc.bc, Options{
					MatrixFree: true, Precond: PrecondGMG, Slip: tc.slip,
					GMG: gmg.Options{AgglomThreshold: 64},
				})
				s.Update(contrastViscosity(m, dom, 1e9), nil) // no jump yet
				var scalar [3]krylov.Operator
				for c := 0; c < 3; c++ {
					scalar[c] = s.GMGH.Precond(s.compBC[c])
				}
				s.Update(contrastViscosity(m, dom, tc.s0), nil)

				if cr := s.GMGH.CoarseRanks(); p > 1 && cr >= p {
					t.Errorf("%s ranks %d: no repartition gap (coarsest level on %d ranks)", tc.name, p, cr)
				}
				if r.ID() == 0 {
					t.Logf("%s ranks %d: levels %v, coarsest on %d rank(s)",
						tc.name, p, s.GMGH.LevelElems(), s.GMGH.CoarseRanks())
				}

				n := m.NumOwned
				x, z := la.NewVec(s.Layout), la.NewVec(s.Layout)
				for i := 0; i < n; i++ {
					for c := 0; c < 3; c++ {
						key := 4*uint64(m.Offset+int64(i)) + uint64(c)
						x.Data[4*i+c] = 2*prand(31, key) - 1
						z.Data[4*i+c] = 2*prand(37, key) - 1
					}
				}
				mx, mz := la.NewVec(s.Layout), la.NewVec(s.Layout)
				s.velGMG.ApplyStrided(x.Data, mx.Data, 4)
				s.velGMG.ApplyStrided(z.Data, mz.Data, 4)

				xc, yc := la.NewVec(s.nodeL), la.NewVec(s.nodeL)
				for c := 0; c < 3; c++ {
					for i := 0; i < n; i++ {
						xc.Data[i] = x.Data[4*i+c]
					}
					scalar[c].Apply(xc, yc)
					for i := 0; i < n; i++ {
						if got, want := mx.Data[4*i+c], yc.Data[i]; got != want {
							t.Errorf("%s ranks %d rank %d: component %d node %d: blocked %v (%#x) != scalar %v (%#x)",
								tc.name, p, r.ID(), c, i, got, math.Float64bits(got), want, math.Float64bits(want))
							break
						}
					}
				}

				lhs, rhs := mx.Dot(z), mz.Dot(x)
				if d := math.Abs(lhs-rhs) / math.Max(math.Abs(lhs), math.Abs(rhs)); d > 1e-12 {
					t.Errorf("%s ranks %d: blocked V-cycle asymmetric: z.Mx=%v x.Mz=%v (rel %v)", tc.name, p, lhs, rhs, d)
				}
			})
		}
	}
}

// TestPrecondCountersOneCycle is the CI counter gate (no wall clock): on
// the 2-rank level-2 cubed-sphere shell with free-slip top, one
// application of the Stokes preconditioner must send no more user
// messages than ONE scalar V-cycle on the same hierarchy — the three
// components share every smoother, transfer and exchange message — and
// enter no collective at all: the coarsest level is solved by
// substitution on the one rank that holds it. The counts go to the test
// log and are pinned exactly (9 user messages, 0 collectives per rank).
//
// Re-pinned 14 → 9 messages and 3 → 0 collectives: velocity
// preconditioner changed: V(1,1) damped-Jacobi smoothing and an exact
// coarsest solve. The numbers may only go down; re-pin with the reason.
func TestPrecondCountersOneCycle(t *testing.T) {
	conn := forest.CubedSphere(2)
	g := mesh.NewShellGeometry(conn)
	sim.Run(2, func(r *sim.Rank) {
		m := mesh.Extract(forest.New(r, conn, 2), g)
		dom := fem.UnitDomain
		s := Setup(m, dom, RadialNoSlipInner(g.RInner, g.ROuter), Options{
			MatrixFree: true, Precond: PrecondGMG,
			Slip: ShellSlipNormals(g.RInner, g.ROuter, false, true),
		})
		var scalar [3]krylov.Operator
		for c := 0; c < 3; c++ {
			scalar[c] = s.GMGH.Precond(s.compBC[c])
		}
		s.Update(contrastViscosity(m, dom, 0.3), nil)

		x, y := la.NewVec(s.Layout), la.NewVec(s.Layout)
		for i := range x.Data {
			x.Data[i] = 2*prand(41, uint64(s.Layout.Start())+uint64(i)) - 1
		}
		xc, yc := la.NewVec(s.nodeL), la.NewVec(s.nodeL)
		for i := range xc.Data {
			xc.Data[i] = x.Data[4*i]
		}
		pc := s.Precond()
		count := func(f func()) (msgs, colls int) {
			r.Barrier()
			before := r.Stats()
			f()
			after := r.Stats()
			r.Barrier()
			return after.UserMsgs - before.UserMsgs, after.CollectiveCalls - before.CollectiveCalls
		}
		pcMsgs, pcColls := count(func() { pc.Apply(x, y) })
		var scMsgs, scColls [3]int
		var sumColls int
		for c := 0; c < 3; c++ {
			c := c
			scMsgs[c], scColls[c] = count(func() { scalar[c].Apply(xc, yc) })
			sumColls += scColls[c]
		}
		t.Logf("rank %d: levels %v, coarsest on %d rank(s); Precond.Apply: %d user msgs, %d collectives; scalar V-cycles: %v user msgs, %v collectives",
			r.ID(), s.GMGH.LevelElems(), s.GMGH.CoarseRanks(), pcMsgs, pcColls, scMsgs, scColls)
		if pcMsgs > scMsgs[0] {
			t.Errorf("rank %d: Precond.Apply sent %d user messages, one scalar V-cycle sends %d — the velocity block must cost one cycle's messages, not three",
				r.ID(), pcMsgs, scMsgs[0])
		}
		if pcColls != 0 || sumColls != 0 {
			t.Errorf("rank %d: Precond.Apply entered %d collectives and the three scalar cycles %d — a V-cycle must enter none",
				r.ID(), pcColls, sumColls)
		}
		if pcMsgs != 9 {
			t.Errorf("rank %d: Precond.Apply sent %d user messages, pinned 9", r.ID(), pcMsgs)
		}
	})
}
