package matfree_test

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/matfree"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// frontBox is the unit box at level 3 refined passes times along the
// tilted plane x + 0.3 y + 0.2 z = 0.75 (octants within two edge lengths
// below it) and balanced: the shape of the benchmark's box-amr meshes,
// bricks of passes+1 octree levels with hanging corners.
func frontBox(r *sim.Rank, passes int) *forest.Forest {
	f := forest.New(r, unitBox, 3)
	for pass := 0; pass < passes; pass++ {
		f.Refine(func(o forest.Octant) bool {
			lo := float64(o.O.X) + 0.3*float64(o.O.Y) + 0.2*float64(o.O.Z)
			c := 0.75 * float64(morton.RootLen)
			return lo <= c && c <= lo+2*float64(o.O.Len())
		})
	}
	f.Balance()
	return f
}

// hangingShare is the share of m's elements with a hanging corner.
func hangingShare(m *mesh.Mesh) float64 {
	n := 0
	for _, row := range m.Rows {
		for _, s := range row {
			if s < 0 {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(m.Rows))
}

// BenchmarkApply times one Q1 matrix-free Apply on one rank, reported
// per element with the share of elements that have a hanging corner
// (hang-frac): on the front box refined twice (bricks of three octree
// levels, one shared geometry per level), on the uniform level-3 shell
// (12 288 elements, a geometry per element) and on the level-1 shell
// refined on three trees and again along a face of one (half of its
// elements have a hanging corner).
func BenchmarkApply(b *testing.B) {
	shell := forest.CubedSphere(2)
	for _, c := range []struct {
		name string
		mesh func(r *sim.Rank) *mesh.Mesh
	}{
		{"box", func(r *sim.Rank) *mesh.Mesh { return mesh.Extract(frontBox(r, 2), nil) }},
		{"shell", func(r *sim.Rank) *mesh.Mesh {
			return mesh.Extract(forest.New(r, shell, 3), mesh.NewShellGeometry(shell))
		}},
		{"shell-adapted", func(r *sim.Rank) *mesh.Mesh {
			f := forest.New(r, shell, 1)
			f.Refine(func(o forest.Octant) bool { return o.Tree < 3 })
			f.Refine(func(o forest.Octant) bool { return o.Tree == 1 && o.O.Level == 2 && o.O.X == 0 })
			f.Balance()
			return mesh.Extract(f, mesh.NewShellGeometry(shell))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			sim.Run(1, func(r *sim.Rank) {
				m := c.mesh(r)
				eta := make([]float64, len(m.Leaves))
				for ei := range eta {
					eta[ei] = math.Exp(2 * math.Sin(float64(ei)))
				}
				layout := la.NewLayout(r, 4*m.NumOwned)
				cons := consFrom(m, func(g int64, c int) (float64, bool) { return 0, c == 3 && g == 0 })
				op := matfree.New(m, fem.UnitDomain, layout, eta, cons)
				x, y := la.NewVec(layout), la.NewVec(layout)
				fillTestVec(x)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op.Apply(x, y)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(m.Leaves)), "ns/elem")
				b.ReportMetric(hangingShare(m), "hang-frac")
			})
		})
	}
}
