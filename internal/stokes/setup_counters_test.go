package stokes

import (
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// TestSetupCounters pins, as exact numbers, what one solver set-up costs
// in synchronisation: the collectives entered and user messages sent by
// Setup plus the first Update on a two-rank adapted free-slip shell whose
// GMG hierarchy has seven levels (the shape of the benchmark's
// shell-cycle workload). Extraction is outside the window; it is counted
// by TestAdaptCounters.
//
// Recorded at the parent of the change that made node slots the mesh's
// own (PR 23): 158 collectives and 80 messages on rank 0, 131 and 63 on
// rank 1. That set-up negotiated a slot map for the fine mesh and for
// each level mesh after extracting it (one AlltoallvSparse per mesh a
// rank holds: 7 on rank 0, 5 on rank 1, which drops out at the
// repartition gap, each costing the asking rank 1 a message), gathered
// the velocity masks, values, slip mask and normals as 8 single-field
// exchanges and each level's Dirichlet data as 6, all served by rank 0,
// which owns the shared nodes. Now the plan comes with the mesh, Setup
// gathers its 8 fields in one message and each of the 5 shared levels its
// 6 in one: 7 and 5 collectives fewer, 7 + 5×5 = 32 and 5 messages fewer.
//
// Rank 0 went 151 → 142 collectives when the coarsest level stopped being
// assembled as a distributed la.Mat: on rank 0's one-rank subset
// communicator each velocity component's matrix assembly (triplet
// routing, column plan) and right-hand-side finalize entered 3
// collectives, 9 for the three. Its dense Cholesky factors are assembled
// without communication.
// The numbers may only go down; re-pin with the reason.
func TestSetupCounters(t *testing.T) {
	wantColls, wantMsgs := [2]int{142, 126}, [2]int{48, 58}
	const wantLevels = 7
	conn := forest.CubedSphere(2)
	g := mesh.NewShellGeometry(conn)
	sim.Run(2, func(r *sim.Rank) {
		f := forest.New(r, conn, 2)
		for pass := 0; pass < 2; pass++ {
			f.Refine(func(o forest.Octant) bool { return o.Tree == 0 && o.O.X == 0 && o.O.Y == 0 })
		}
		f.Balance()
		f.Partition()
		m := mesh.Extract(f, g)
		dom := fem.UnitDomain
		eta := contrastViscosity(m, dom, 0.3)
		r.Barrier()
		before := r.Stats()
		s := Setup(m, dom, RadialNoSlipInner(g.RInner, g.ROuter), Options{
			MatrixFree: true, Precond: PrecondGMG,
			Slip: ShellSlipNormals(g.RInner, g.ROuter, false, true),
		})
		s.Update(eta, nil)
		after := r.Stats()
		r.Barrier()
		colls := after.CollectiveCalls - before.CollectiveCalls
		msgs := after.UserMsgs - before.UserMsgs
		t.Logf("rank %d: %d elements, levels %v: Setup + Update entered %d collectives, sent %d user messages",
			r.ID(), len(m.Leaves), s.GMGH.LevelElems(), colls, msgs)
		if n := s.GMGH.NumLevels(); n != wantLevels {
			t.Errorf("rank %d: hierarchy has %d levels, the fixture is meant to have %d", r.ID(), n, wantLevels)
		}
		if colls != wantColls[r.ID()] || msgs != wantMsgs[r.ID()] {
			t.Errorf("rank %d: Setup + Update entered %d collectives and sent %d user messages, pinned %d and %d",
				r.ID(), colls, msgs, wantColls[r.ID()], wantMsgs[r.ID()])
		}
	})
}
