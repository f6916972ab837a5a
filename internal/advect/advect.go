// Package advect implements the energy-equation transport solver of the
// paper (§III, §V): SUPG-stabilized trilinear finite elements for the
// advection–diffusion equation
//
//	dT/dt + u . grad T - kappa Laplace(T) = gamma
//
// advanced with an explicit two-stage predictor–corrector (Heun) time
// integrator and a lumped mass matrix. The operator is applied
// matrix-free and matrix-forming-free: each stage is one loop over the
// local elements that evaluates the operator's action at the quadrature
// points, in the mesh's slot numbering, with one ghost gather before the
// loop and one scatter-add after it. Axis-aligned bricks take the
// separable kernel (fem.BrickGeom.TransportRate) with their geometry
// looked up by octree level; mapped elements take the dense one
// (fem.TransportRate) on the physical gradients expanded from the mesh's
// shared per-element Jacobian data. What depends on the velocity alone —
// each element's SUPG parameter and the rank's stable-step minimum — is
// derived once per velocity (New, SetVelocity), so a stage does only the
// work that depends on T. The work per step is linear in the number of
// elements, no element matrix is ever formed, and a stage enters no
// collective — exactly the regime the paper uses to stress AMR.
package advect

import (
	"math"

	"rhea/internal/fem"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Problem couples a mesh with transport coefficients, a velocity and
// boundary data.
type Problem struct {
	M   *mesh.Mesh
	Dom fem.Domain
	// Source is the internal heat generation gamma (may be nil).
	Source func(x [3]float64) float64
	// BC fixes the temperature where it returns true.
	BC fem.ScalarBC

	kappa float64 // diffusivity (1/Pe in nondimensional form)
	// vel is the caller's corner velocity table (one entry per local
	// element, not copied); tau and dtMin are derived from it by
	// SetVelocity: each element's SUPG parameter and the rank's smallest
	// stable step before the CFL factor.
	vel   [][8][3]float64
	tau   []float64
	dtMin float64

	lumpInv *la.Vec // inverse lumped mass (zero rows for Dirichlet nodes)
	bcVal   *la.Vec // Dirichlet values at owned nodes (NaN elsewhere)
	isBC    []bool
	// geos holds the per-element isoparametric geometry on mapped
	// (forest) meshes, whose gradients a stage expands into qs; nil on
	// axis-aligned meshes, which read brick[level] instead.
	geos  []fem.ElemGeom
	qs    [8]fem.QGeom
	brick [morton.MaxLevel + 1]brickLevel

	// tbuf and acc are the slot-space (mesh.Mesh.GX) input and
	// accumulator of the element loop, k1, k2 and pred the stage vectors
	// of Step.
	tbuf, acc    []float64
	k1, k2, pred *la.Vec
}

// brickLevel is the geometry shared by every axis-aligned element of one
// octree level: its edge lengths, the separable kernel's 1/h and point
// weight, and its lumped mass.
type brickLevel struct {
	h  [3]float64
	g  fem.BrickGeom
	lm [8]float64
}

// New prepares the transport problem with corner velocities vel (one
// entry per local element, retained, not copied): it assembles the
// lumped mass matrix, caches boundary flags and derives the velocity's
// SUPG parameters and stable step (collective).
func New(m *mesh.Mesh, dom fem.Domain, kappa float64, vel [][8][3]float64, src func(x [3]float64) float64, bc fem.ScalarBC) *Problem {
	p := &Problem{M: m, Dom: dom, kappa: kappa, Source: src, BC: bc}
	p.tbuf = make([]float64, m.NSlots())
	p.acc = make([]float64, m.NSlots())
	p.tau = make([]float64, len(m.Leaves))
	l := m.Layout()
	p.k1, p.k2, p.pred = la.NewVec(l), la.NewVec(l), la.NewVec(l)

	// Per-element geometry and, in the same pass, the lumped mass.
	if p.geos = fem.ElemGeoms(m); p.geos != nil {
		for ei := range p.geos {
			lm := fem.LumpedMassGeom(&p.geos[ei], 1)
			p.scatter(ei, &lm)
		}
	} else {
		for ei, leaf := range m.Leaves {
			b := &p.brick[leaf.Level]
			if b.h == ([3]float64{}) {
				b.h = dom.ElemSize(leaf)
				b.g = fem.NewBrickGeom(b.h)
				b.lm = b.g.LumpedMass()
			}
			p.scatter(ei, &b.lm)
		}
	}
	lump := la.NewVec(l)
	p.reduce(lump)
	p.lumpInv = la.NewVec(l)
	p.isBC = make([]bool, m.NumOwned)
	p.bcVal = la.NewVec(l)
	for i := range m.OwnedPos {
		if v, is := bc(fem.NodeCoord(m, dom, i)); is {
			p.isBC[i] = true
			p.bcVal.Data[i] = v
			p.lumpInv.Data[i] = 0 // dT/dt = 0 on the boundary
		} else if lump.Data[i] > 0 {
			p.lumpInv.Data[i] = 1 / lump.Data[i]
		}
	}
	p.SetVelocity(vel)
	return p
}

// SetVelocity makes vel (corner velocities, one entry per local element,
// retained, not copied) the problem's velocity. One pass over it derives
// each element's SUPG parameter and the rank's stable-step minimum, so a
// caller that rewrites the table in place must call SetVelocity again
// before the next RateOfChange, Step or StableDt. The advective limit is
// directional — min_d h_d / max|u_d| — so thin elements do not throttle
// transport along their long axes; isotropic elements reduce to the
// classical h/|u| exactly (bitwise, for the pinned box regressions). The
// diffusive limit keeps the conservative shortest edge: h_min^2/(6 kappa).
func (p *Problem) SetVelocity(vel [][8][3]float64) {
	p.vel = vel
	p.dtMin = math.Inf(1)
	for ei, leaf := range p.M.Leaves {
		var h [3]float64
		var hm float64
		if p.geos != nil {
			h = p.geos[ei].H
			hm = p.geos[ei].Hmin // true shortest edge for the diffusive limit
		} else {
			h = p.brick[leaf.Level].h
			hm = math.Min(h[0], math.Min(h[1], h[2]))
		}
		umax, ubar, uAxisMax := cornerVelStats(&vel[ei])
		p.tau[ei] = fem.SUPGTauAniso(h, ubar, umax, p.kappa)
		dt := math.Inf(1)
		if h[0] == h[1] && h[2] == h[1] {
			if umax > 0 {
				dt = hm / umax
			}
		} else {
			for d := 0; d < 3; d++ {
				if uAxisMax[d] > 0 {
					dt = math.Min(dt, h[d]/uAxisMax[d])
				}
			}
		}
		if p.kappa > 0 {
			dt = math.Min(dt, hm*hm/(6*p.kappa))
		}
		if dt < p.dtMin {
			p.dtMin = dt
		}
	}
}

// scatter adds the eight corner values R of element ei into the
// slot-space accumulator: an independent corner's slot at weight 1, a
// hanging corner's masters at weight 1/N.
func (p *Problem) scatter(ei int, R *[8]float64) {
	row := &p.M.Rows[ei]
	for a := 0; a < 8; a++ {
		if s := row[a]; s >= 0 {
			p.acc[s] += R[a]
			continue
		}
		h := &p.M.Hang[^row[a]]
		w := h.W()
		for k := 0; k < int(h.N); k++ {
			p.acc[h.Slot[k]] += w * R[a]
		}
	}
}

// reduce completes an element loop: out receives the owned part of the
// accumulator plus the contributions other ranks scattered to ghost
// copies of this rank's nodes, and the accumulator is cleared for the
// next loop (collective).
func (p *Problem) reduce(out *la.Vec) {
	n := p.M.NumOwned
	copy(out.Data, p.acc[:n])
	p.M.GX.ScatterAdd(p.acc[n:], out.Data)
	for i := range p.acc {
		p.acc[i] = 0
	}
}

// ApplyBC overwrites Dirichlet nodes of T with their boundary values.
func (p *Problem) ApplyBC(T *la.Vec) {
	for i := range T.Data {
		if p.isBC[i] {
			T.Data[i] = p.bcVal.Data[i]
		}
	}
}

// cornerVelStats reduces the eight corner velocities of an element to
// the statistics the SUPG parameter and the stability limit need: the
// maximum corner speed, the element-mean velocity, and the per-axis
// maximum of |u_d| (the directional advective limit).
func cornerVelStats(u *[8][3]float64) (umax float64, ubar, uAxisMax [3]float64) {
	var u2max float64 // sqrt is monotone: one root of the largest square
	for c := 0; c < 8; c++ {
		if n2 := u[c][0]*u[c][0] + u[c][1]*u[c][1] + u[c][2]*u[c][2]; n2 > u2max {
			u2max = n2
		}
		for d := 0; d < 3; d++ {
			ubar[d] += u[c][d] / 8
			if a := math.Abs(u[c][d]); a > uAxisMax[d] {
				uAxisMax[d] = a
			}
		}
	}
	umax = math.Sqrt(u2max)
	return
}

// RateOfChange computes dTdt = M_L^-1 [ F - (K + G + S) T ] with zero
// rate at Dirichlet nodes (collective: one ghost gather, one ghost
// scatter-add, no reduction).
func (p *Problem) RateOfChange(T, dTdt *la.Vec) {
	copy(p.tbuf, T.Data)
	p.M.GX.Gather(T.Data, p.tbuf[len(T.Data):])
	for ei, leaf := range p.M.Leaves {
		row := &p.M.Rows[ei]
		var Tc, R [8]float64
		for c := 0; c < 8; c++ {
			if s := row[c]; s >= 0 {
				Tc[c] = p.tbuf[s]
			} else {
				Tc[c] = p.M.Hang[^s].Value(p.tbuf)
			}
		}
		u, tau := &p.vel[ei], p.tau[ei]
		if p.geos == nil {
			b := &p.brick[leaf.Level]
			b.g.TransportRate(p.kappa, tau, u, &Tc, &R)
			if p.Source != nil {
				p.addSource(ei, &b.lm, &R)
			}
		} else {
			p.geos[ei].Grads(&p.qs)
			fem.TransportRate(&p.qs, p.kappa, tau, u, &Tc, &R)
			if p.Source != nil {
				lm := fem.LumpedMassQ(&p.qs, 1)
				p.addSource(ei, &lm, &R)
			}
		}
		p.scatter(ei, &R)
	}
	p.reduce(dTdt)
	dTdt.PointwiseMult(dTdt, p.lumpInv)
}

// addSource adds element ei's lumped heat source, lm_a gamma(x_a), to R.
func (p *Problem) addSource(ei int, lm, R *[8]float64) {
	xc := fem.ElemCornerCoords(p.M, p.Dom, ei)
	for a := 0; a < 8; a++ {
		R[a] += lm[a] * p.Source(xc[a])
	}
}

// StableDt returns the global explicit stability limit of the current
// velocity (see SetVelocity) scaled by cfl (collective: one reduction).
func (p *Problem) StableDt(cfl float64) float64 {
	return cfl * p.M.Rank.Allreduce(p.dtMin, sim.OpMin)
}

// Step advances T by one time step of size dt using the explicit
// predictor–corrector (Heun / RK2) integrator (collective).
func (p *Problem) Step(T *la.Vec, dt float64) {
	p.RateOfChange(T, p.k1)
	copy(p.pred.Data, T.Data)
	p.pred.AXPY(dt, p.k1)
	p.ApplyBC(p.pred)
	p.RateOfChange(p.pred, p.k2)
	T.AXPY(dt/2, p.k1)
	T.AXPY(dt/2, p.k2)
	p.ApplyBC(T)
}
