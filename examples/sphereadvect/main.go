// Sphereadvect: the paper's Fig 12 demonstration — a temperature front
// carried around the spherical shell on the 24-tree cubed-sphere forest
// (6 caps x 4 trees) by a solid-body rotation about the z axis, while the
// forest adapts to the front and repartitions every cycle. It runs the
// application's own transport stack: SUPG advection (advect) on the
// mapped shell elements, marking by the temperature variation (errind),
// and rhea.AdaptFields for coarsen, refine, balance, partition and field
// transfer.
package main

import (
	"flag"
	"fmt"
	"math"
	"strings"

	"rhea/internal/advect"
	"rhea/internal/errind"
	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/rhea"
	"rhea/internal/sim"
)

func main() {
	cycles := flag.Int("cycles", 5, "advect+adapt cycles to run")
	flag.Parse()
	const (
		ranks  = 4
		target = 3000
		steps  = 6 // SUPG steps per cycle
	)
	conn := forest.CubedSphere(2) // 24 trees, as in the paper
	geom := mesh.ShellGeometry{Conn: conn, RInner: 1, ROuter: 2}
	// A front in the middle of the shell; the rotation (-y, x, 0) is
	// tangent to every sphere, so nothing crosses the shell boundaries.
	front := func(x [3]float64) float64 {
		rad := math.Sqrt((x[0]-1.5)*(x[0]-1.5) + x[1]*x[1] + x[2]*x[2])
		return 0.5 * (1 - math.Tanh((rad-0.25)/0.05))
	}
	noBC := func([3]float64) (float64, bool) { return 0, false }
	opts := errind.Options{MinLevel: 1, MaxLevel: 5}

	fmt.Printf("cubed sphere: %d trees, SUPG transport, %d ranks\n\n", conn.NumTrees(), ranks)
	sim.Run(ranks, func(r *sim.Rank) {
		var tm rhea.Timings
		f := forest.New(r, conn, 2)
		m := mesh.Extract(f, geom)
		var T *la.Vec
		// adapt marks by T's variation and adapts the mesh to it, carrying
		// fields.
		adapt := func(fields []*la.Vec) ([]*la.Vec, rhea.AdaptStats) {
			marks := errind.MarkElements(f, errind.Variation(m, T), target, opts)
			nm, out, st := rhea.AdaptFields(f, m, fields, marks, &tm)
			m = nm
			return out, st
		}
		// Sample the front, adapt to it, and sample it again on the
		// adapted mesh: twice. The samples replace T, so it is not carried.
		for i := 0; i < 3; i++ {
			if i > 0 {
				adapt(nil)
			}
			T = la.NewVec(m.Layout())
			for j := range T.Data {
				T.Data[j] = front(fem.NodeCoord(m, fem.UnitDomain, j))
			}
		}
		for c := 1; c <= *cycles; c++ {
			vel := make([][8][3]float64, len(m.Leaves))
			for ei := range vel {
				for k, x := range fem.ElemCornerCoords(m, fem.UnitDomain, ei) {
					vel[ei][k] = [3]float64{-x[1], x[0], 0}
				}
			}
			p := advect.New(m, fem.UnitDomain, 1e-4, vel, nil, noBC)
			dt := p.StableDt(0.4)
			for s := 0; s < steps; s++ {
				p.Step(T, dt)
			}
			out, st := adapt([]*la.Vec{T})
			T = out[0]
			// Where does the front live now? Count the elements with a
			// corner above 0.5, per tree.
			vals := m.GatherSlots(T.Data)[0]
			counts := make([]float64, conn.NumTrees())
			for ei, o := range f.Leaves() {
				for k := range m.Rows[ei] {
					if m.Corner(ei, k).Value(vals) > 0.5 {
						counts[o.Tree]++
						break
					}
				}
			}
			all := r.AllreduceVec(counts)
			if r.ID() == 0 {
				var hot []string
				for tr, n := range all {
					if n > 0 {
						hot = append(hot, fmt.Sprintf("tree%d:%.0f", tr, n))
					}
				}
				fmt.Printf("cycle %d: %d elements, %4d moved on repartition\n"+
					"         front in %s\n", c, st.ElementsNow, st.Moved, strings.Join(hot, " "))
			}
		}
	})
}
