package matfree

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// TestApplyLanesMatchesScalarBitwise: Apply through the four-lane
// element loop (elementLoop4, the loop New picks on an AVX2 CPU) equals
// Apply through the per-element loop bit for bit on one to three ranks, on two families of meshes whose local element
// counts each cover every residue mod 4: adapted cubed-sphere shells with
// hanging corners (a geometry per element), and adapted boxes with three
// octree levels, two or three on a rank, and hanging corners (lanes that
// alias one brick geometry and lanes that straddle two levels).
func TestApplyLanesMatchesScalarBitwise(t *testing.T) {
	if !fem.HasAVX2() {
		t.Skip("no AVX2 on this CPU: New keeps the per-element loop")
	}
	shell := forest.CubedSphere(2)
	box := forest.BrickConnectivity(1, 1, 1)
	for _, c := range []struct {
		name string
		mesh func(r *sim.Rank, v int32) *mesh.Mesh
	}{
		{"shell", func(r *sim.Rank, trees int32) *mesh.Mesh {
			f := forest.New(r, shell, 1)
			f.Refine(func(o forest.Octant) bool { return o.Tree < trees })
			f.Refine(func(o forest.Octant) bool { return o.Tree == 1 && o.O.Level == 2 && o.O.X == 0 })
			f.Balance()
			f.Partition()
			return mesh.Extract(f, mesh.NewShellGeometry(shell))
		}},
		{"box", func(r *sim.Rank, v int32) *mesh.Mesh {
			f := forest.New(r, box, 1)
			f.Refine(func(o forest.Octant) bool { return o.O.X == 0 })
			f.Refine(func(o forest.Octant) bool {
				return o.O.Level == 2 && o.O.X == 0 && int32(o.O.Y/o.O.Len()+4*(o.O.Z/o.O.Len())) < v
			})
			f.Balance()
			f.Partition()
			return mesh.Extract(f, nil)
		}},
	} {
		var mu sync.Mutex
		residues := map[int]bool{}
		for _, ranks := range []int{1, 2, 3} {
			for v := int32(1); v <= 5; v++ {
				sim.Run(ranks, func(r *sim.Rank) {
					m := c.mesh(r, v)
					levels := map[uint8]bool{}
					for _, l := range m.Leaves {
						levels[l.Level] = true
					}
					id := fmt.Sprintf("%s %d, %d ranks, rank %d (%d elements, %d levels)", c.name, v, ranks, r.ID(), len(m.Leaves), len(levels))
					if m.GlobalStats().HangingLocal == 0 {
						t.Errorf("%s: no hanging corners", id)
					}
					checkLanes(t, id, r, m)
					mu.Lock()
					residues[len(m.Leaves)%4] = true
					mu.Unlock()
				})
			}
		}
		if len(residues) != 4 {
			t.Errorf("%s: local element counts cover the residues %v mod 4, want all four", c.name, residues)
		}
	}
}

// checkLanes applies a rank's operator on m through both element loops
// and fails unless the results agree bit for bit.
func checkLanes(t *testing.T, id string, r *sim.Rank, m *mesh.Mesh) {
	eta := make([]float64, len(m.Leaves))
	for ei := range eta {
		eta[ei] = math.Exp(4 * math.Sin(float64(3*ei+1)))
	}
	ns := m.NSlots()
	cons := Constraints{Fixed: make([]bool, 4*ns), Val: make([]float64, 4*ns)}
	for s := 0; s < ns; s++ {
		g := m.GID(int32(s))
		cons.Fixed[4*s+1] = g%5 == 0
		cons.Fixed[4*s+3] = g == 0
	}
	layout := la.NewLayout(r, 4*m.NumOwned)
	x := la.NewVec(layout)
	for i := range x.Data {
		x.Data[i] = math.Cos(0.37*float64(4*m.Offset+int64(i))) - 0.2
		if i%9 == 4 {
			x.Data[i] = 0
		}
	}
	op := New(m, fem.UnitDomain, layout, eta, cons)
	y4, y1 := la.NewVec(layout), la.NewVec(layout)
	op.loopFn = op.elementLoop4
	op.Apply(x, y4)
	op.loopFn = op.elementLoop
	op.Apply(x, y1)
	for i := range y1.Data {
		if math.Float64bits(y4.Data[i]) != math.Float64bits(y1.Data[i]) {
			t.Fatalf("%s: y[%d] = %v in lanes, %v per element", id, i, y4.Data[i], y1.Data[i])
		}
	}
	t.Logf("%s: equal bit for bit", id)
}
