package stokes

import (
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
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
//
// 142/126 → 124/111 when the partition markers stopped being exchanged
// after local steps: each coarser level the hierarchy derives
// (forest.CoarsenedCopy: copy, coarsen, Balance) exchanged them three
// times and now inherits them, 3 collectives fewer for each of the 6
// derived levels rank 0 builds and the 5 rank 1 builds.
//
// 124/111 → 118/106 when forest.Balance came to one demand exchange: each
// derived level's Balance entered two collectives per round (exchange and
// changed flag), two rounds or one, and now enters one.
// The numbers may only go down; re-pin with the reason.
func TestSetupCounters(t *testing.T) {
	wantColls, wantMsgs := [2]int{118, 106}, [2]int{48, 58}
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

// TestQ2Counters pins what the Taylor-Hood layer costs in
// synchronisation, at two ranks: ExtractQ2, Setup and the first Update on
// a uniform level-2 box, and one preconditioner application on a level-3
// box.
//
// Recorded at the parent of the change that moved the Q2 layer onto the
// mesh's slot numbering: ExtractQ2 entered 4 collectives and sent 1 user
// message per rank; Setup + Update 65 and 61 collectives, 26 and 31
// messages on rank 0 and 1; a preconditioner application 51 messages per
// rank. ExtractQ2 numbered its nodes with an exclusive scan and an Allreduce and
// Setup negotiated two slot maps over them (one la.NewGhostExchange
// each), built three scalar V-cycles and smoothed three p-levels, one per
// velocity component. Now the numbering handshake is Extract's (one
// la.NewLayout, the plan read off the ask/reply), Setup gathers the
// constraint table in one message over that plan, and one width-3 p-level
// feeds the one blocked V-cycle: an application sends one p-level's
// messages — 14 for the seven operator applies, 2 for the embedding, 1
// for the V-cycle — instead of three.
//
// Setup + Update 60/56 → 57/53 when forest.CoarsenedCopy stopped
// exchanging the partition markers three times per derived level (one
// level here).
//
// 57/53 → 56/52 when forest.Balance came to one demand exchange (one
// round of two collectives before, here).
// The numbers may only go down; re-pin with the reason.
func TestQ2Counters(t *testing.T) {
	wantExtract := [2]int{3, 1} // collectives, messages (each rank)
	wantColls, wantMsgs := [2]int{56, 52}, [2]int{23, 29}
	const wantPrecondMsgs = 17
	sim.Run(2, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		r.Barrier()
		s0 := r.Stats()
		m.Q2 = mesh.ExtractQ2(tr, m)
		s1 := r.Stats()
		r.Barrier()
		dom := fem.UnitDomain
		s2 := r.Stats()
		Setup(m, dom, FreeSlip(dom.Box), q2Options()).Update(constViscosity(m, 1), nil)
		s3 := r.Stats()
		r.Barrier()
		ec, em := s1.CollectiveCalls-s0.CollectiveCalls, s1.UserMsgs-s0.UserMsgs
		colls, msgs := s3.CollectiveCalls-s2.CollectiveCalls, s3.UserMsgs-s2.UserMsgs
		t.Logf("rank %d: ExtractQ2 entered %d collectives, sent %d user messages; Setup + Update %d and %d",
			r.ID(), ec, em, colls, msgs)
		if ec != wantExtract[0] || em != wantExtract[1] {
			t.Errorf("rank %d: ExtractQ2 entered %d collectives and sent %d messages, pinned %d and %d",
				r.ID(), ec, em, wantExtract[0], wantExtract[1])
		}
		if colls != wantColls[r.ID()] || msgs != wantMsgs[r.ID()] {
			t.Errorf("rank %d: Setup + Update entered %d collectives and sent %d user messages, pinned %d and %d",
				r.ID(), colls, msgs, wantColls[r.ID()], wantMsgs[r.ID()])
		}
	})
	sim.Run(2, func(r *sim.Rank) {
		m := buildQ2Mesh(r, 3)
		dom := fem.UnitDomain
		s := Setup(m, dom, FreeSlip(dom.Box), q2Options()).Update(constViscosity(m, 1), nil)
		pc := s.Precond()
		x, y := la.NewVec(s.Layout), la.NewVec(s.Layout)
		for i := range x.Data {
			x.Data[i] = float64(i%7) - 3
		}
		pc.Apply(x, y)
		r.Barrier()
		s0 := r.Stats()
		pc.Apply(x, y)
		s1 := r.Stats()
		r.Barrier()
		colls, msgs := s1.CollectiveCalls-s0.CollectiveCalls, s1.UserMsgs-s0.UserMsgs
		t.Logf("rank %d: one Q2 preconditioner application entered %d collectives, sent %d user messages", r.ID(), colls, msgs)
		if colls != 0 || msgs != wantPrecondMsgs {
			t.Errorf("rank %d: one Q2 preconditioner application entered %d collectives and sent %d messages, pinned 0 and %d",
				r.ID(), colls, msgs, wantPrecondMsgs)
		}
	})
}
