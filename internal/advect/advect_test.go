package advect

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// unitBox is the one-tree connectivity of the unit cube.
var unitBox = forest.BrickConnectivity(1, 1, 1)

// uniformVel fills per-element corner velocities with a constant vector.
func uniformVel(m *mesh.Mesh, v [3]float64) [][8][3]float64 {
	out := make([][8][3]float64, len(m.Leaves))
	for ei := range out {
		for c := 0; c < 8; c++ {
			out[ei][c] = v
		}
	}
	return out
}

// setField initializes a nodal vector from a function of position.
func setField(m *mesh.Mesh, dom fem.Domain, f func(x [3]float64) float64) *la.Vec {
	v := la.NewVec(m.Layout())
	for i, pos := range m.OwnedPos {
		v.Data[i] = f(dom.Coord(pos))
	}
	return v
}

// cornerValue evaluates corner c of element ei from the whole nodal
// vector (la.GatherGlobal: an allgather indexed by global id), so the
// tests' reference paths move no value through the mesh's ghost plan.
func cornerValue(m *mesh.Mesh, full []float64, ei, c int) float64 {
	co := &m.Corners[ei][c]
	var s float64
	for k := 0; k < int(co.N); k++ {
		s += co.W[k] * full[m.GID(co.Slot[k])]
	}
	return s
}

// centroid returns the global T-weighted center of mass along axis d,
// volume-weighted so it is unbiased on adapted meshes.
func centroid(m *mesh.Mesh, dom fem.Domain, T *la.Vec, d int) float64 {
	vals := la.GatherGlobal(T)
	var wsum, xsum float64
	for ei, leaf := range m.Leaves {
		h := dom.ElemSize(leaf)
		w := h[0] * h[1] * h[2] / 8
		xc := fem.ElemCornerCoords(m, dom, ei)
		for c := 0; c < 8; c++ {
			tv := cornerValue(m, vals, ei, c)
			x := xc[c]
			wsum += w * tv
			xsum += w * tv * x[d]
		}
	}
	gw := m.Rank.Allreduce(wsum, sim.OpSum)
	gx := m.Rank.Allreduce(xsum, sim.OpSum)
	return gx / gw
}

func TestDiffusionDecayRate(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 3)
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		kappa := 0.05
		bc := func(x [3]float64) (float64, bool) {
			if x[0] == 0 || x[0] == 1 || x[1] == 0 || x[1] == 1 || x[2] == 0 || x[2] == 1 {
				return 0, true
			}
			return 0, false
		}
		p := New(m, dom, kappa, uniformVel(m, [3]float64{0, 0, 0}), nil, bc)
		T := setField(m, dom, func(x [3]float64) float64 {
			return math.Sin(math.Pi*x[0]) * math.Sin(math.Pi*x[1]) * math.Sin(math.Pi*x[2])
		})
		p.ApplyBC(T)
		amp0 := T.NormInf()
		dt := p.StableDt(0.5)
		tEnd := 0.2
		steps := int(tEnd/dt) + 1
		dt = tEnd / float64(steps)
		for s := 0; s < steps; s++ {
			p.Step(T, dt)
		}
		amp := T.NormInf()
		want := amp0 * math.Exp(-3*math.Pi*math.Pi*kappa*tEnd)
		if math.Abs(amp-want)/want > 0.15 {
			t.Errorf("diffusion decay: amp %v, analytic %v", amp, want)
		}
	})
}

func TestAdvectionTransportsBump(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 3)
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		vel := [3]float64{0.25, 0, 0}
		p := New(m, dom, 1e-6, uniformVel(m, vel), nil, func(x [3]float64) (float64, bool) {
			if x[0] == 0 || x[0] == 1 || x[1] == 0 || x[1] == 1 || x[2] == 0 || x[2] == 1 {
				return 0, true
			}
			return 0, false
		})
		T := setField(m, dom, func(x [3]float64) float64 {
			r2 := (x[0]-0.3)*(x[0]-0.3) + (x[1]-0.5)*(x[1]-0.5) + (x[2]-0.5)*(x[2]-0.5)
			return math.Exp(-r2 / 0.01)
		})
		p.ApplyBC(T)
		c0 := centroid(m, dom, T, 0)
		tEnd := 0.4 // bump moves 0.1 in x
		dt := p.StableDt(0.4)
		steps := int(tEnd/dt) + 1
		dt = tEnd / float64(steps)
		for s := 0; s < steps; s++ {
			p.Step(T, dt)
		}
		c1 := centroid(m, dom, T, 0)
		moved := c1 - c0
		if math.Abs(moved-0.1) > 0.03 {
			t.Errorf("bump moved %v, want 0.1 (c0=%v c1=%v)", moved, c0, c1)
		}
		// Transverse centroid must stay put.
		if cy := centroid(m, dom, T, 1); math.Abs(cy-0.5) > 0.02 {
			t.Errorf("transverse drift to %v", cy)
		}
	})
}

// High-Peclet front: SUPG must keep over/undershoots modest where plain
// Galerkin would oscillate wildly.
func TestSUPGControlsOscillations(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 3)
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		p := New(m, dom, 1e-8, uniformVel(m, [3]float64{1, 0, 0}), nil, func(x [3]float64) (float64, bool) {
			if x[0] == 0 {
				return 1, true // hot inflow
			}
			if x[0] == 1 {
				return 0, true
			}
			return 0, false
		})
		T := setField(m, dom, func(x [3]float64) float64 { return 0 })
		p.ApplyBC(T)
		dt := p.StableDt(0.3)
		for s := 0; s < 60; s++ {
			p.Step(T, dt)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range T.Data {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if lo < -0.2 || hi > 1.2 {
			t.Errorf("front solution out of bounds: [%v, %v]", lo, hi)
		}
		if hi < 0.5 {
			t.Errorf("front did not propagate: max %v", hi)
		}
	})
}

func TestStableDtScalesWithMesh(t *testing.T) {
	var dts [2]float64
	for li, lvl := range []uint8{2, 3} {
		sim.Run(1, func(r *sim.Rank) {
			tr := forest.New(r, unitBox, lvl)
			m := mesh.Extract(tr, nil)
			p := New(m, fem.UnitDomain, 0, uniformVel(m, [3]float64{1, 0, 0}), nil, fem.NoBC)
			dts[li] = p.StableDt(1)
		})
	}
	if math.Abs(dts[0]/dts[1]-2) > 1e-9 {
		t.Errorf("dt ratio %v, want 2 (advective CFL ~ h)", dts[0]/dts[1])
	}
}

func TestSourceHeatsInterior(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		p := New(m, dom, 0.01, uniformVel(m, [3]float64{0, 0, 0}),
			func(x [3]float64) float64 { return 1 },
			func(x [3]float64) (float64, bool) {
				if x[2] == 0 || x[2] == 1 {
					return 0, true
				}
				return 0, false
			})
		T := la.NewVec(m.Layout())
		dt := p.StableDt(0.4)
		for s := 0; s < 30; s++ {
			p.Step(T, dt)
		}
		var maxT float64
		for _, v := range T.Data {
			maxT = math.Max(maxT, v)
		}
		g := r.Allreduce(maxT, sim.OpMax)
		if g <= 0 {
			t.Errorf("internal heating had no effect: max T = %v", g)
		}
	})
}

// Advection on an adapted mesh with hanging nodes must remain stable and
// transport correctly.
func TestAdvectionOnAdaptedMesh(t *testing.T) {
	sim.Run(3, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		tr.Refine(func(o forest.Octant) bool { return o.O.X < morton.RootLen/2 })
		tr.Balance()
		tr.Partition()
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		p := New(m, dom, 1e-5, uniformVel(m, [3]float64{0.25, 0, 0}), nil, func(x [3]float64) (float64, bool) {
			if x[0] == 0 || x[0] == 1 {
				return 0, true
			}
			return 0, false
		})
		T := setField(m, dom, func(x [3]float64) float64 {
			r2 := (x[0]-0.3)*(x[0]-0.3) + (x[1]-0.5)*(x[1]-0.5) + (x[2]-0.5)*(x[2]-0.5)
			return math.Exp(-r2 / 0.02)
		})
		p.ApplyBC(T)
		c0 := centroid(m, dom, T, 0)
		dt := p.StableDt(0.3)
		steps := int(0.4/dt) + 1
		dt = 0.4 / float64(steps)
		for s := 0; s < steps; s++ {
			p.Step(T, dt)
		}
		if n := T.NormInf(); math.IsNaN(n) || n > 10 {
			t.Fatalf("unstable on adapted mesh: %v", n)
		}
		c1 := centroid(m, dom, T, 0)
		if moved := c1 - c0; math.Abs(moved-0.1) > 0.04 {
			t.Errorf("adapted-mesh bump moved %v, want 0.1", moved)
		}
	})
}
