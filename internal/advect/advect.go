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
// points (fem.TransportRate) from cached geometry — on mapped meshes the
// physical gradients expanded from the mesh's shared per-element
// Jacobian data into one scratch table, on axis-aligned ones one table
// per octree level — in the mesh's slot numbering, with one ghost
// gather before the loop and one scatter-add after it. The work per step
// is linear in the number of elements, no element matrix is ever formed,
// and a stage enters no collective — exactly the regime the paper uses to
// stress AMR.
package advect

import (
	"math"

	"rhea/internal/fem"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Problem couples a mesh with transport coefficients and boundary data.
type Problem struct {
	M   *mesh.Mesh
	Dom fem.Domain
	// Kappa is the diffusivity (1/Pe in nondimensional form).
	Kappa float64
	// Vel gives the velocity at each corner of each local element.
	Vel [][8][3]float64
	// Source is the internal heat generation gamma (may be nil).
	Source func(x [3]float64) float64
	// BC fixes the temperature where it returns true.
	BC fem.ScalarBC

	lumpInv *la.Vec // inverse lumped mass (zero rows for Dirichlet nodes)
	bcVal   *la.Vec // Dirichlet values at owned nodes (NaN elsewhere)
	isBC    []bool
	// geos holds the per-element isoparametric geometry on mapped
	// (forest) meshes; nil on axis-aligned meshes, where the constant-h
	// brick formulas apply.
	geos []*fem.ElemGeom
	// qg is each element's quadrature-point geometry on axis-aligned
	// meshes: one table per octree level, aliased. Mapped meshes expand
	// an element's gradients into qs when it is visited instead.
	qg []*[8]fem.QGeom
	qs [8]fem.QGeom

	// tbuf and acc are the slot-space (mesh.Mesh.GX) input and
	// accumulator of the element loop, k1, k2 and pred the stage vectors
	// of Step.
	tbuf, acc    []float64
	k1, k2, pred *la.Vec
}

// New prepares the transport problem: it assembles the lumped mass matrix
// and caches boundary flags (collective).
func New(m *mesh.Mesh, dom fem.Domain, kappa float64, vel [][8][3]float64, src func(x [3]float64) float64, bc fem.ScalarBC) *Problem {
	p := &Problem{M: m, Dom: dom, Kappa: kappa, Vel: vel, Source: src, BC: bc}
	p.tbuf = make([]float64, m.NSlots())
	p.acc = make([]float64, m.NSlots())
	l := m.Layout()
	p.k1, p.k2, p.pred = la.NewVec(l), la.NewVec(l), la.NewVec(l)

	// Per-element geometry and, in the same pass, the lumped mass.
	if p.geos = fem.ElemGeoms(m); p.geos != nil {
		for ei, g := range p.geos {
			lm := fem.LumpedMassGeom(g, 1)
			p.scatter(ei, &lm)
		}
	} else {
		p.qg = make([]*[8]fem.QGeom, len(m.Leaves))
		var byLevel [morton.MaxLevel + 1]*[8]fem.QGeom
		var lm [8]float64
		var last *[8]fem.QGeom // runs of same-level bricks share one table
		for ei, leaf := range m.Leaves {
			q := byLevel[leaf.Level]
			if q == nil {
				q = fem.BrickQGeom(dom.ElemSize(leaf))
				byLevel[leaf.Level] = q
			}
			p.qg[ei] = q
			if q != last {
				lm, last = fem.LumpedMassQ(q, 1), q
			}
			p.scatter(ei, &lm)
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
	return p
}

// scatter adds the eight corner values R of element ei into the
// slot-space accumulator through the hanging-node weights.
func (p *Problem) scatter(ei int, R *[8]float64) {
	cs := &p.M.Corners[ei]
	for a := 0; a < 8; a++ {
		cr := &cs[a]
		for k := 0; k < int(cr.N); k++ {
			p.acc[cr.Slot[k]] += cr.W[k] * R[a]
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

// quad returns the quadrature-point geometry of element ei: the level's
// table on axis-aligned meshes; on mapped ones the element's gradients,
// expanded into the problem's scratch table, which the next call
// overwrites.
func (p *Problem) quad(ei int) *[8]fem.QGeom {
	if p.geos == nil {
		return p.qg[ei]
	}
	p.geos[ei].Grads(&p.qs)
	return &p.qs
}

// elemSize returns the directional extents of element ei.
func (p *Problem) elemSize(ei int) [3]float64 {
	if p.geos != nil {
		return p.geos[ei].H
	}
	return p.Dom.ElemSize(p.M.Leaves[ei])
}

// RateOfChange computes dTdt = M_L^-1 [ F - (K + G + S) T ] with zero
// rate at Dirichlet nodes (collective: one ghost gather, one ghost
// scatter-add, no reduction).
func (p *Problem) RateOfChange(T, dTdt *la.Vec) {
	copy(p.tbuf, T.Data)
	p.M.GX.Gather(T.Data, p.tbuf[len(T.Data):])
	for ei := range p.M.Leaves {
		cs := &p.M.Corners[ei]
		var Tc, R [8]float64
		for c := 0; c < 8; c++ {
			Tc[c] = cs[c].Value(p.tbuf)
		}
		u := &p.Vel[ei]
		umax, ubar, _ := cornerVelStats(u)
		tau := fem.SUPGTauAniso(p.elemSize(ei), ubar, umax, p.Kappa)
		q := p.quad(ei)
		fem.TransportRate(q, p.Kappa, tau, u, &Tc, &R)
		if p.Source != nil {
			lm := fem.LumpedMassQ(q, 1)
			xc := fem.ElemCornerCoords(p.M, p.Dom, ei)
			for a := 0; a < 8; a++ {
				R[a] += lm[a] * p.Source(xc[a])
			}
		}
		p.scatter(ei, &R)
	}
	p.reduce(dTdt)
	dTdt.PointwiseMult(dTdt, p.lumpInv)
}

// StableDt returns the global explicit stability limit scaled by cfl
// (collective). The advective limit is directional — min_d h_d /
// max|u_d| — so thin elements do not throttle transport along their
// long axes; isotropic elements reduce to the classical h/|u| exactly
// (bitwise, for the pinned box regressions). The diffusive limit keeps
// the conservative shortest edge: h_min^2/(6 kappa).
func (p *Problem) StableDt(cfl float64) float64 {
	local := math.Inf(1)
	for ei, leaf := range p.M.Leaves {
		var h [3]float64
		var hm float64
		if p.geos != nil {
			h = p.geos[ei].H
			hm = p.geos[ei].Hmin // true shortest edge for the diffusive limit
		} else {
			h = p.Dom.ElemSize(leaf)
			hm = math.Min(h[0], math.Min(h[1], h[2]))
		}
		u := &p.Vel[ei]
		umax, _, uAxisMax := cornerVelStats(u)
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
		if p.Kappa > 0 {
			dt = math.Min(dt, hm*hm/(6*p.Kappa))
		}
		if dt < local {
			local = dt
		}
	}
	g := p.M.Rank.Allreduce(local, sim.OpMin)
	return cfl * g
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
