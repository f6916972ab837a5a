package rhea

import (
	"math"
	"runtime"
	"testing"

	"rhea/internal/errind"
	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// TestAdaptCounters pins what one AdaptFields costs in communication at
// two ranks on a small adapted box, with the four fields of the time loop
// (T, U0-U2), with one, and with none (New's initial rounds):
// deterministic counts, no wall clock. The fields cross the adaptation
// together, so the counts do not depend on how many there are, as long
// as there are any. Per call, each rank enters
//
//	1 Balance (its one demand exchange, however far the ripple crosses ranks)
//	2 Partition (leaf counts, markers; the leaves move over the route the counts give)
//	3 Extract (ghost layer, node layout, node ownership queries)
//	1 statistics (every tally and the level histogram in one reduction)
//
// = 7 collectives, with fields or without. Transfer ships the fields over
// Partition's route, ToNodal reads each node from its own element, and
// the local coarsen, refine and Balance keep the partition markers, so
// none of them exchanges anything to learn what every rank already
// holds. It was 8 while Balance took two collectives per round (a demand
// exchange and a changed flag), 9 while ToNodal averaged every corner at
// its node's owner, 20 while the statistics took five reductions and a
// leading NumGlobal, Partition four (total, exclusive scan, a leaf
// exchange with a count handshake, markers), Transfer a handshake of its
// own and every local step a marker exchange; 18 with no field. With no
// field each rank sends 3 user messages. The fields add only the messages
// of the projection's ghost gather and Transfer, here one on rank 0: 4 on
// rank 0 and 3 on rank 1.
//
// It also counts, at 8 ranks on the Fig 7 schedule (600 elements per
// rank), one whole adaptation: MarkElements enters 1 + Rounds
// collectives (the indicator's maximum, then one reduction per threshold
// round; here 3 rounds, 4 collectives, 8 while the element count was a
// reduction of its own and each round took two) and AdaptFields carrying
// T 7: 11 per adaptation. It was 10 (14 per adaptation) while Balance
// took two rounds of two collectives there, 11 with the averaging
// ToNodal, 22 before. Both are logged.
func TestAdaptCounters(t *testing.T) {
	box := forest.BrickConnectivity(1, 1, 1)
	type counts struct{ colls, collMsgs, userMsgs int }
	measure := func(r *sim.Rank, nFields int) counts {
		f := forest.New(r, box, 2)
		f.Refine(func(o forest.Octant) bool { return o.O.X < morton.RootLen/4 })
		f.Balance()
		f.Partition()
		m := mesh.Extract(f, nil)
		fields := make([]*la.Vec, nFields)
		for k := range fields {
			fields[k] = la.NewVec(m.Layout())
			for i := range m.OwnedPos {
				x := fem.NodeCoord(m, fem.UnitDomain, i)
				fields[k].Data[i] = math.Sin(float64(k+1)*x[0]) + x[1]*x[2]
			}
		}
		marks := errind.Marks{Refine: make([]bool, f.NumLocal()), Coarsen: make([]bool, f.NumLocal())}
		for i, o := range f.Leaves() {
			marks.Refine[i] = o.O.Level == 3 && o.O.Y == 0
			marks.Coarsen[i] = o.O.X >= morton.RootLen/2
		}
		var tm Timings
		before := r.Stats()
		_, out, st := AdaptFields(f, m, fields, marks, &tm)
		after := r.Stats()
		if len(out) != nFields || st.Refined == 0 || st.Coarsened == 0 || st.BalanceAdded == 0 {
			t.Errorf("rank %d: adaptation did not exercise every stage: %d fields out, stats %+v", r.ID(), len(out), st)
		}
		return counts{
			colls:    after.CollectiveCalls - before.CollectiveCalls,
			collMsgs: after.CollMsgs - before.CollMsgs,
			userMsgs: after.UserMsgs - before.UserMsgs,
		}
	}
	sim.Run(2, func(r *sim.Rank) {
		four, one, none := measure(r, 4), measure(r, 1), measure(r, 0)
		t.Logf("rank %d: AdaptFields with 4 fields: %d collectives, %d tree messages, %d user messages; with 1 field: %d, %d, %d; with none: %d, %d, %d",
			r.ID(), four.colls, four.collMsgs, four.userMsgs, one.colls, one.collMsgs, one.userMsgs, none.colls, none.collMsgs, none.userMsgs)
		if four != one {
			t.Errorf("rank %d: counts depend on the number of fields: %+v with 4, %+v with 1", r.ID(), four, one)
		}
		if want := (counts{colls: 7, collMsgs: 7, userMsgs: []int{4, 3}[r.ID()]}); four != want {
			t.Errorf("rank %d: AdaptFields cost %+v, want %+v", r.ID(), four, want)
		}
		if want := (counts{colls: 7, collMsgs: 7, userMsgs: 3}); none != want {
			t.Errorf("rank %d: AdaptFields with no field cost %+v, want %+v", r.ID(), none, want)
		}
	})
	sim.Run(8, func(r *sim.Rank) {
		s := newTransportSim(r, boxTransport(), 3, 2, 6, 600*8)
		s.step(32)
		s0 := r.Stats()
		marks := errind.MarkElements(s.forest, errind.Variation(s.mesh, s.T), s.target,
			errind.Options{MaxLevel: s.maxLvl, MinLevel: s.minLvl})
		s1 := r.Stats()
		AdaptFields(s.forest, s.mesh, []*la.Vec{s.T}, marks, &s.times)
		s2 := r.Stats()
		mark, adapt := s1.CollectiveCalls-s0.CollectiveCalls, s2.CollectiveCalls-s1.CollectiveCalls
		if r.ID() == 0 {
			t.Logf("8 ranks, Fig 7 schedule: MarkElements %d collectives (%d rounds), AdaptFields %d: %d per adaptation",
				mark, marks.Rounds, adapt, mark+adapt)
		}
		if mark != 1+marks.Rounds {
			t.Errorf("rank %d: MarkElements entered %d collectives in %d rounds, want 1 + rounds", r.ID(), mark, marks.Rounds)
		}
		if adapt != 7 {
			t.Errorf("rank %d: AdaptFields entered %d collectives at 8 ranks, pinned 7", r.ID(), adapt)
		}
	})
}

// TestAdaptBytesPerLeaf pins what one adaptation allocates per global
// leaf at two ranks: AdaptFields carrying the time loop's four fields
// (T, U0-U2) across a moved front on a box-amr-shaped box (levels 2-6,
// 20 000 elements), marking excluded. It counts the new mesh and fields
// it returns and the scratch that dies with the call: Balance's leaf and
// demand arrays, the moved leaves' element data, the ghost gather and
// Extract's tables. The bound is the figure measured when the pressure
// stopped crossing adaptations, 582 B/leaf, plus 10%; with the pressure
// as a fifth field it read 599 on the same host (573 when the field pass
// came to write each projected value once and Balance to one exchange).
// Before, with the five fields copied in full three times (snapshot,
// projection, a transfer that concatenated the kept range too) and
// Balance in rounds, it was 1 701.
func TestAdaptBytesPerLeaf(t *testing.T) {
	const bound = 1.1 * 582
	front := func(x [3]float64) float64 {
		d := math.Sin(0.1)*(x[0]-0.5) + math.Cos(0.1)*(x[2]-0.5)
		return 0.5 * (1 - math.Tanh(d/0.02))
	}
	cfg := Config{
		Dom: fem.UnitDomain, InitialTemp: front,
		BaseLevel: 3, MinLevel: 2, MaxLevel: 6, TargetElems: 20000, InitAdapt: 3,
	}
	perLeaf := math.Inf(1)
	for rep := 0; rep < 2; rep++ {
		sim.Run(2, func(r *sim.Rank) {
			s := New(r, cfg)
			// The front moves on by a few of its widths, as between two of
			// box-amr's adaptations, so leaves are refined and coarsened.
			for i := range s.T.Data {
				x := fem.NodeCoord(s.Mesh, cfg.Dom, i)
				s.T.Data[i] = front([3]float64{x[0] - 0.06, x[1], x[2]})
				for c := range s.U {
					s.U[c].Data[i] = x[c]
				}
			}
			marks := s.mark()
			var before, after runtime.MemStats
			r.Barrier()
			if r.ID() == 0 {
				runtime.ReadMemStats(&before)
			}
			r.Barrier()
			_, _, st := AdaptFields(s.Forest, s.Mesh, []*la.Vec{s.T, s.U[0], s.U[1], s.U[2]}, marks, &s.Times)
			r.Barrier()
			if r.ID() == 0 {
				runtime.ReadMemStats(&after)
				perLeaf = math.Min(perLeaf, float64(after.TotalAlloc-before.TotalAlloc)/float64(st.ElementsNow))
				t.Logf("%d -> %d elements (%d refined, %d coarsened, %d added by balance)",
					st.ElementsPrev, st.ElementsNow, st.Refined, st.Coarsened, st.BalanceAdded)
			}
		})
	}
	t.Logf("one AdaptFields with four fields allocates %.0f B/leaf at 2 ranks (bound %.0f)", perLeaf, bound)
	if perLeaf > bound {
		t.Errorf("one AdaptFields with four fields allocates %.0f B/leaf, want <= %.0f", perLeaf, bound)
	}
}
