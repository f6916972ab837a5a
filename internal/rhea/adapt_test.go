package rhea

import (
	"math"
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
// two ranks on a small adapted box, with the five fields of the time loop
// (T, U0-U2, P), with one, and with none (New's initial rounds):
// deterministic counts, no wall clock. The fields cross the adaptation
// together, so the counts do not depend on how many there are, as long
// as there are any. Per call, each rank enters
//
//	1 NumGlobal
//	2 CoarsenMarked + RefineMarked partition markers
//	2 per Balance round (request exchange + changed flag), here 1 round, + 1 markers
//	4 Partition (total, exscan, leaf exchange, markers)
//	1 Transfer (one message per destination for all fields)
//	3 Extract (ghost layer, node layout, node ownership queries)
//	1 ToNodal (one message per owner for all fields and the count)
//	5 statistics (four counters, level histogram)
//
// = 20 collectives (18 + 3 per field while every field made the trip
// alone: 33 for the time loop's five, and 8 and 13 user messages on the
// two ranks where there are now 4 and 4). With no field the snapshot's
// ghost gather (one user message), Transfer and ToNodal are skipped: 18
// collectives and 3 user messages.
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
		five, one, none := measure(r, 5), measure(r, 1), measure(r, 0)
		t.Logf("rank %d: AdaptFields with 5 fields: %d collectives, %d tree messages, %d user messages; with 1 field: %d, %d, %d; with none: %d, %d, %d",
			r.ID(), five.colls, five.collMsgs, five.userMsgs, one.colls, one.collMsgs, one.userMsgs, none.colls, none.collMsgs, none.userMsgs)
		if five != one {
			t.Errorf("rank %d: counts depend on the number of fields: %+v with 5, %+v with 1", r.ID(), five, one)
		}
		if want := (counts{colls: 20, collMsgs: 20, userMsgs: 4}); five != want {
			t.Errorf("rank %d: AdaptFields cost %+v, want %+v", r.ID(), five, want)
		}
		if want := (counts{colls: 18, collMsgs: 18, userMsgs: 3}); none != want {
			t.Errorf("rank %d: AdaptFields with no field cost %+v, want %+v", r.ID(), none, want)
		}
	})
}
