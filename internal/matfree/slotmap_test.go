package matfree_test

import (
	"testing"
	"time"

	"rhea/internal/forest"
	"rhea/internal/matfree"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// TestNodeSlotsIsLocal pins that the slot map is a view of what the
// extraction left on the mesh: asking for it enters no collective, sends
// no message and copies no corner row. It used to negotiate a ghost plan
// on the first call per mesh, so a rank that reached that first call
// alone — a diagnostic on one rank, an error path — hung the world; here
// rank 0 does exactly that on a fresh mesh while the others go straight
// to a barrier.
func TestNodeSlotsIsLocal(t *testing.T) {
	shell := forest.CubedSphere(2)
	cases := []struct {
		name  string
		build func(r *sim.Rank) *mesh.Mesh
	}{
		{"box", func(r *sim.Rank) *mesh.Mesh {
			f := forest.New(r, unitBox, 2)
			f.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 })
			f.Balance()
			f.Partition()
			return mesh.Extract(f, nil)
		}},
		{"shell", func(r *sim.Rank) *mesh.Mesh {
			f := forest.New(r, shell, 1)
			f.Refine(func(o forest.Octant) bool { return o.Tree < 3 })
			f.Balance()
			f.Partition()
			return mesh.Extract(f, mesh.NewShellGeometry(shell))
		}},
	}
	for _, tc := range cases {
		for _, p := range []int{2, 3} {
			tc, p := tc, p // go 1.21: the goroutine below must not share the loop's
			done := make(chan struct{})
			go func() {
				defer close(done)
				sim.Run(p, func(r *sim.Rank) {
					m := tc.build(r)
					if m.GlobalStats().HangingLocal == 0 {
						t.Errorf("%s p=%d: mesh has no hanging corners", tc.name, p)
					}
					if r.ID() == 0 {
						sm := matfree.NodeSlots(m) // alone, first use on this mesh
						vals := make([]float64, sm.NSlots())
						for ei := range sm.Corners {
							sm.Corners[ei][0].Value(vals)
						}
					}
					r.Barrier()

					before := r.Stats()
					a, b := matfree.NodeSlots(m), matfree.NewSlotMap(m, 1)
					if after := r.Stats(); after != before {
						t.Errorf("%s p=%d rank %d: the slot map communicated: stats %+v -> %+v", tc.name, p, r.ID(), before, after)
					}
					for _, sm := range []*matfree.SlotMap{a, b} {
						if len(m.Corners) > 0 && &sm.Corners[0] != &m.Corners[0] {
							t.Errorf("%s p=%d rank %d: the slot map copied the corner table", tc.name, p, r.ID())
						}
						if sm.GX != m.GX || sm.NOwned != m.NumOwned || sm.NSlots() != m.NSlots() {
							t.Errorf("%s p=%d rank %d: the slot map is not the mesh's numbering", tc.name, p, r.ID())
						}
					}
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s p=%d: world hung after one rank asked for the slot map alone", tc.name, p)
			}
		}
	}
}
