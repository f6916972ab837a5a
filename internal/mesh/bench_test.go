package mesh

import (
	"fmt"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// frontForest builds a balanced forest refined from base to max towards
// a tilted plane through every tree: the sharp-front meshes the adaptive
// workloads extract every cycle (collective).
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

// BenchmarkExtract times Extract on the box-amr-like adapted level-3..6
// box and on the adapted 24-tree shell, at one rank ("box", "shell") and
// at two ("box-2ranks", "shell-2ranks"), where the ghost layer and the
// numbering handshake have work to do. ns/leaf is per global leaf: the
// wall time of one collective extraction over the whole forest.
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
		for _, p := range []int{1, 2} {
			name := bc.name
			if p > 1 {
				name = fmt.Sprintf("%s-%dranks", bc.name, p)
			}
			b.Run(name, func(b *testing.B) {
				sim.Run(p, func(r *sim.Rank) {
					f := frontForest(r, bc.conn, bc.base, bc.max)
					f.Partition()
					n := f.NumGlobal()
					r.Barrier()
					if r.ID() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						Extract(f, bc.geom)
					}
					r.Barrier()
					if r.ID() == 0 {
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*n), "ns/leaf")
						b.ReportMetric(float64(n), "leaves")
					}
				})
			})
		}
	}
}
