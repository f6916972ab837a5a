package mesh

import (
	"testing"

	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// frontForest builds, on one rank, a balanced forest refined from base to
// max towards a tilted plane through every tree: the sharp-front meshes
// the adaptive workloads extract every cycle.
func frontForest(r *sim.Rank, c *forest.Connectivity, base, max uint8) *forest.Forest {
	front := func(x, y, z uint32) int64 { return 4*int64(x) + 2*int64(y) + int64(z) - 3*morton.RootLen }
	f := forest.New(r, c, base)
	for l := base; l < max; l++ {
		f.Refine(func(o forest.Octant) bool {
			h := o.O.Len()
			return front(o.O.X, o.O.Y, o.O.Z) <= 0 && front(o.O.X+h, o.O.Y+h, o.O.Z+h) >= 0
		})
	}
	f.Balance()
	return f
}

// BenchmarkExtract times Extract on one rank on the box-amr-like adapted
// level-3..6 box and on the adapted 24-tree shell.
func BenchmarkExtract(b *testing.B) {
	shell := forest.CubedSphere(2)
	for _, bc := range []struct {
		name      string
		conn      *forest.Connectivity
		geom      Geometry
		base, max uint8
	}{
		{"box", unitBox, nil, 3, 6},
		{"shell", shell, NewShellGeometry(shell), 1, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sim.Run(1, func(r *sim.Rank) {
				f := frontForest(r, bc.conn, bc.base, bc.max)
				var m *Mesh
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m = Extract(f, bc.geom)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(m.Leaves)), "ns/leaf")
				b.ReportMetric(float64(len(m.Leaves)), "leaves")
			})
		})
	}
}
