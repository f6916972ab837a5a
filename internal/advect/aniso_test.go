package advect

// Anisotropic-element pins for the directional stability limit: a thin
// box must not throttle the time step for flow along its long axes,
// while isotropic meshes keep the classical h/|u| limit bitwise.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

func TestStableDtDirectional(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 1)
		m := mesh.Extract(tr, nil)
		dom := fem.Domain{Box: [3]float64{0.01, 1, 1}} // elements 0.005 x 0.5 x 0.5
		p := New(m, dom, 0, uniformVel(m, [3]float64{0, 1, 0}), nil, fem.NoBC)
		// Flow along the long y-axis: the limit is h_y/|u_y| = 0.5, not
		// the thin-axis h_x/|u| = 0.005 the isotropic formula would give.
		if dt := p.StableDt(1); math.Abs(dt-0.5) > 1e-14 {
			t.Errorf("directional StableDt = %v, want 0.5", dt)
		}
		// Flow across the thin axis is limited by the thin extent.
		p.Vel = uniformVel(m, [3]float64{1, 0, 0})
		if dt := p.StableDt(1); math.Abs(dt-0.005) > 1e-14 {
			t.Errorf("thin-axis StableDt = %v, want 0.005", dt)
		}
	})
}

func TestStableDtIsotropicUnchanged(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		u := [3]float64{0.3, -0.4, 1.2}
		un := math.Sqrt(u[0]*u[0] + u[1]*u[1] + u[2]*u[2])
		p := New(m, dom, 1e-3, uniformVel(m, u), nil, fem.NoBC)
		want := math.Min(0.25/un, 0.25*0.25/(6*1e-3))
		if dt := p.StableDt(1); dt != want {
			t.Errorf("isotropic StableDt = %v, want classical %v (bitwise)", dt, want)
		}
	})
}
