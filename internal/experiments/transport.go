package experiments

import (
	"math"
	"time"

	"rhea/internal/advect"
	"rhea/internal/errind"
	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/rhea"
	"rhea/internal/sim"
)

// newBox returns the unit cube, uniformly refined to the given level, as
// a one-tree forest (collective).
func newBox(r *sim.Rank, level uint8) *forest.Forest {
	return forest.New(r, forest.BrickConnectivity(1, 1, 1), level)
}

// transportSim is the advection-dominated test problem of the paper's §V:
// a sharp temperature front swept through the box by a fixed rotating
// velocity field, with frequent coarsening/refinement and repartitioning.
// It exercises every AMR function without the Stokes solver, exactly the
// regime used to stress parallel adaptivity.
type transportSim struct {
	tree   *forest.Forest
	mesh   *mesh.Mesh
	dom    fem.Domain
	T      *la.Vec
	target int64
	minLvl uint8
	maxLvl uint8
	kappa  float64

	times rhea.Timings // the paper's Fig 7 buckets
	steps int
}

// rotVel is a solid-body rotation about the box center in the x-z plane.
func rotVel(x [3]float64) [3]float64 {
	return [3]float64{-(x[2] - 0.5), 0, x[0] - 0.5}
}

func newTransportSim(r *sim.Rank, base, minLvl, maxLvl uint8, target int64) *transportSim {
	s := &transportSim{
		dom: fem.UnitDomain, target: target,
		minLvl: minLvl, maxLvl: maxLvl, kappa: 1e-4,
	}
	t0 := time.Now()
	s.tree = newBox(r, base)
	s.times.NewTree += time.Since(t0).Seconds()
	t0 = time.Now()
	s.mesh = mesh.Extract(s.tree, nil)
	s.times.ExtractMesh += time.Since(t0).Seconds()
	s.T = la.NewVec(s.mesh.Layout())
	s.initField()
	// Initial solution-adaptive rounds.
	for i := 0; i < 2; i++ {
		s.adapt()
		s.initField()
	}
	return s
}

func (s *transportSim) initField() {
	for i, pos := range s.mesh.OwnedPos {
		x := s.dom.Coord(pos)
		// Sharp spherical front off-center (it will rotate).
		r := math.Sqrt((x[0]-0.3)*(x[0]-0.3) + (x[1]-0.5)*(x[1]-0.5) + (x[2]-0.3)*(x[2]-0.3))
		s.T.Data[i] = 0.5 * (1 - math.Tanh((r-0.15)/0.03))
	}
}

func (s *transportSim) bc() fem.ScalarBC {
	return func(x [3]float64) (float64, bool) { return 0, false }
}

// step advances n explicit SUPG steps.
func (s *transportSim) step(n int) {
	t0 := time.Now()
	vel := make([][8][3]float64, len(s.mesh.Leaves))
	for ei, leaf := range s.mesh.Leaves {
		h := leaf.Len()
		for c := 0; c < 8; c++ {
			p := [3]uint32{leaf.X, leaf.Y, leaf.Z}
			if c&1 != 0 {
				p[0] += h
			}
			if c&2 != 0 {
				p[1] += h
			}
			if c&4 != 0 {
				p[2] += h
			}
			vel[ei][c] = rotVel(s.dom.Coord(p))
		}
	}
	p := advect.New(s.mesh, s.dom, s.kappa, vel, nil, s.bc())
	dt := p.StableDt(0.4)
	for i := 0; i < n; i++ {
		p.Step(s.T, dt)
		s.steps++
	}
	s.times.TimeIntegrate += time.Since(t0).Seconds()
}

// adapt marks by the temperature variation and runs the shared
// adaptation pipeline for the one field (collective).
func (s *transportSim) adapt() rhea.AdaptStats {
	t0 := time.Now()
	eta := errind.Variation(s.mesh, s.T)
	marks := errind.MarkElements(s.tree, eta, s.target, errind.Options{
		MaxLevel: s.maxLvl, MinLevel: s.minLvl,
	})
	s.times.MarkElements += time.Since(t0).Seconds()

	m, f, st := rhea.AdaptFields(s.tree, s.mesh, []*la.Vec{s.T}, marks, &s.times)
	s.mesh, s.T = m, f[0]
	return st
}

// totalTime sums all recorded buckets.
func (s *transportSim) totalTime() float64 {
	return s.times.NewTree + s.times.AMRTotal() + s.times.TimeIntegrate
}
