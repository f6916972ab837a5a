package mesh

import (
	"fmt"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Fronts the adapted test meshes refine towards: the plane
// a x + b y + c z = d in tree units, {a, b, c, d}. tilted crosses every
// tree obliquely; level is box-amr's front, z = 0.55 - x/10, a
// near-horizontal plane through the box centre that a 2-rank Morton
// split cuts along its whole length.
var (
	tilted = [4]int64{4, 2, 1, 3}
	level  = [4]int64{2, 0, 20, 11}
)

// frontForest builds a balanced forest refined from base to max towards
// a plane through every tree: the sharp-front meshes the adaptive
// workloads extract every cycle (collective).
func frontForest(r *sim.Rank, c *forest.Connectivity, base, max uint8, plane [4]int64) *forest.Forest {
	front := func(x, y, z uint32) int64 {
		return plane[0]*int64(x) + plane[1]*int64(y) + plane[2]*int64(z) - plane[3]*morton.RootLen
	}
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
// box ("box", tilted front; "box-amr", box-amr's level front) and on the
// adapted 24-tree shell, at one rank and at two ("-2ranks"), where the
// ghost layer and the numbering handshake have work to do. ns/leaf is
// per global leaf: the wall time of one collective extraction over the
// whole forest. At two ranks loop-frac is the fraction of leaves whose
// family is not interior, which the ghost layer visits neighbour by
// neighbour.
func BenchmarkExtract(b *testing.B) {
	shell := forest.CubedSphere(2)
	for _, bc := range []struct {
		name      string
		conn      *forest.Connectivity
		geom      Geometry
		base, max uint8
		plane     [4]int64
	}{
		{"box", unitBox, nil, 3, 6, tilted},
		{"box-amr", unitBox, nil, 3, 6, level},
		{"shell", shell, NewShellGeometry(shell), 1, 4, tilted},
	} {
		for _, p := range []int{1, 2} {
			name := bc.name
			if p > 1 {
				name = fmt.Sprintf("%s-%dranks", bc.name, p)
			}
			b.Run(name, func(b *testing.B) {
				sim.Run(p, func(r *sim.Rank) {
					f := frontForest(r, bc.conn, bc.base, bc.max, bc.plane)
					f.Partition()
					n := f.NumGlobal()
					visited := r.AllreduceInt64(int64(neighbourLoopLeaves(f)))
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
						if p > 1 {
							b.ReportMetric(float64(visited)/float64(n), "loop-frac")
						}
					}
				})
			})
		}
	}
}

// neighbourLoopLeaves counts the local leaves exchangeGhosts does not
// skip: those whose parent is not interior.
func neighbourLoopLeaves(f *forest.Forest) int {
	n := 0
	var buf []int
	for _, o := range f.Leaves() {
		if o.O.Level == 0 || !interior(f, forest.Octant{Tree: o.Tree, O: o.O.Parent()}, buf) {
			n++
		}
	}
	return n
}
