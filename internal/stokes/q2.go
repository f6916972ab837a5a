package stokes

import (
	"fmt"

	"rhea/internal/fem"
	"rhea/internal/gmg"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/matfree"
	"rhea/internal/mesh"
)

// Q2 (Taylor-Hood) solver branch: Options.Order == 2 replaces the
// stabilized equal-order Q1-Q1 pair with 27-node triquadratic velocity
// and trilinear (vertex) pressure. The pair is inf-sup stable, so the
// Dohrmann-Bochev stabilization block disappears; the pressure dof of
// the interleaved layout stays at index 4s+3 but is active at vertex
// nodes only (non-vertex pressure slots are constrained to zero).
//
// Everything else is the Q1 pipeline run on the Q2 layer's slots
// (mesh.Q2Mesh): Setup fills the same slot-indexed constraint table with
// one gather over the layer's ghost plan, the coupled operator is
// matfree.Operator with the 27-node sum-factorized element loop, and the
// velocity preconditioner enters the blocked Q1 V-cycle (the one the Q1
// solver uses) through one p-coarsening level carrying all three
// components: Chebyshev smoothing on the matrix-free Q2 scalar diffusion
// operator, then restriction through the Q1->Q2 embedding transpose down
// to the vertex space.

// interpQ2Force lifts corner body-force values to the 27 element nodes
// by trilinear interpolation — the exact Q1 representation a corner
// force field carries, so Update's signature is unchanged for callers
// that sample forces at vertices (the convection loop).
func (s *Solver) interpQ2Force(force [][8][3]float64) [][27][3]float64 {
	if force == nil {
		return nil
	}
	w1d := [3][2]float64{{1, 0}, {0.5, 0.5}, {0, 1}}
	out := make([][27][3]float64, len(force))
	for ei := range force {
		for n := 0; n < 27; n++ {
			i, j, k := fem.Q2NodeOffset(n)
			for c := 0; c < 8; c++ {
				w := w1d[i][c&1] * w1d[j][c>>1&1] * w1d[k][c>>2&1]
				if w == 0 {
					continue
				}
				for d := 0; d < 3; d++ {
					out[ei][n][d] += w * force[ei][c][d]
				}
			}
		}
	}
	return out
}

// UpdateQ2 refreshes the viscosity- and force-dependent half of the
// Order-2 solver with forces given at the 27 element nodes (collective)
// — the path manufactured-solution tests use for full-accuracy loads;
// Update with corner forces interpolates and delegates here.
func (s *Solver) UpdateQ2(etaElem []float64, force27 [][27][3]float64) *Solver {
	s.MF.SetViscosity(etaElem)
	s.B = s.MF.RHSQ2(force27)
	s.GMGH.Rebuild(etaElem)
	s.pl.refresh(etaElem)
	s.updateSchur(etaElem)
	return s
}

// precondQ2 is the Order-2 block-diagonal preconditioner: the
// p-coarsened multigrid for the three velocity components, and the
// inverse-viscosity lumped pressure mass (computed on the Q1 vertex
// space) mapped onto the active vertex pressure dofs; inactive pressure
// slots pass through.
func (s *Solver) precondQ2() krylov.Operator {
	return krylov.OpFunc(func(x, y *la.Vec) {
		s.pl.apply(x.Data, y.Data)
		for i, li := range s.q2.VertLocal {
			if li >= 0 {
				y.Data[4*i+3] = s.schurInv.Data[li] * x.Data[4*i+3]
			} else {
				y.Data[4*i+3] = x.Data[4*i+3]
			}
		}
	})
}

// embed is the Q1->Q2 nodal embedding E and its exact transpose, for the
// three velocity components at once: a Q2 nodal field interpolating a
// vertex field takes the vertex value at vertices, edge-midpoint averages
// of 2, face averages of 4 and the center average of 8 — the trilinear
// shape values at the node. Each owned Q2 node's masters are corners of a
// local element, resolved to Q1 slot space (the vertex mesh's node
// slots), so prolongation is one ghost gather + a flat scan and
// restriction is the flat scan's transpose + one ghost scatter-add — the
// same dual pair the matrix-free operators use, which is what makes E and
// E^T exact transposes across ranks.
type embed struct {
	m     *mesh.Mesh
	start []int32
	slot  []int32
	w     []float64
	xbuf  []float64
	acc   []float64
}

func newEmbed(q2 *mesh.Q2Mesh) *embed {
	m := q2.M
	e := &embed{m: m}
	n := q2.NumOwned
	w1d := [3][2]float64{{1, 0}, {0.5, 0.5}, {0, 1}}
	type mw struct {
		slot int32
		w    float64
	}
	masters := make([][]mw, n)
	filled := 0
	for ei := range m.Leaves {
		for nn, li := range q2.Nodes[ei] {
			if int(li) >= n || masters[li] != nil {
				continue
			}
			i, j, k := fem.Q2NodeOffset(nn)
			for c := 0; c < 8; c++ {
				wc := w1d[i][c&1] * w1d[j][c>>1&1] * w1d[k][c>>2&1]
				if wc == 0 {
					continue
				}
				cr := m.Corner(ei, c)
				for t := 0; t < int(cr.N); t++ {
					masters[li] = append(masters[li], mw{cr.Slot[t], wc * cr.W[t]})
				}
			}
			filled++
		}
	}
	if filled != n {
		panic(fmt.Sprintf("stokes: embedding reached %d of %d owned Q2 nodes", filled, n))
	}
	e.start = make([]int32, n+1)
	for i, ms := range masters {
		e.start[i+1] = e.start[i] + int32(len(ms))
	}
	e.slot = make([]int32, e.start[n])
	e.w = make([]float64, e.start[n])
	for i, ms := range masters {
		for t, mt := range ms {
			e.slot[e.start[i]+int32(t)] = mt.slot
			e.w[e.start[i]+int32(t)] = mt.w
		}
	}
	e.xbuf = make([]float64, 3*m.NSlots())
	e.acc = make([]float64, 3*m.NSlots())
	return e
}

// prolong computes y = E xc (collective: one Q1 ghost gather).
func (e *embed) prolong(xc, y *la.Vec) {
	n1 := 3 * e.m.NumOwned
	copy(e.xbuf[:n1], xc.Data)
	e.m.GX.GatherBlock(3, xc.Data, e.xbuf[n1:])
	for i := 0; i < len(e.start)-1; i++ {
		for c := 0; c < 3; c++ {
			var v float64
			for t := e.start[i]; t < e.start[i+1]; t++ {
				v += e.w[t] * e.xbuf[3*int(e.slot[t])+c]
			}
			y.Data[3*i+c] = v
		}
	}
}

// restrict computes rc = E^T r (collective: one Q1 ghost scatter-add).
func (e *embed) restrict(r, rc *la.Vec) {
	for i := range e.acc {
		e.acc[i] = 0
	}
	for i := 0; i < len(e.start)-1; i++ {
		for c := 0; c < 3; c++ {
			v := r.Data[3*i+c]
			for t := e.start[i]; t < e.start[i+1]; t++ {
				e.acc[3*int(e.slot[t])+c] += e.w[t] * v
			}
		}
	}
	n1 := 3 * e.m.NumOwned
	copy(rc.Data, e.acc[:n1])
	e.m.GX.ScatterAddBlock(3, e.acc[n1:], rc.Data)
}

// The p-level smoother's settings (see pCoarse).
const (
	q2ChebDegree   = 3
	q2ChebRatio    = 4
	q2LanczosSteps = 6
)

// pCoarse is the p-coarsened multigrid preconditioner for the three Q2
// velocity components: Chebyshev smoothing on the matrix-free Q2 scalar
// diffusion operator around a coarse correction computed by the blocked
// Q1 V-cycle through the embedding transpose pair. Symmetric smoothing,
// transpose transfers and an SPD coarse operator keep it SPD, so it is
// safe inside MINRES. Its vectors hold the three components node-major
// (entry 3i+c); each component's arithmetic is that of a one-component
// p-level of its own.
//
// Its smoother is one Chebyshev(q2ChebDegree) application before and one
// after the correction, on the interval [1.1*lmax/q2ChebRatio, 1.1*lmax]
// of the Jacobi-preconditioned spectrum, lmax from a q2LanczosSteps-step
// Lanczos estimate on component 0 (the component spectra differ only by
// boundary identity rows, well inside the 1.1 safety factor, mirroring
// the gmg levels).
type pCoarse struct {
	q2      *mesh.Q2Mesh
	op      *matfree.ScalarQ2 // the three components
	op0     *matfree.ScalarQ2 // component 0 alone, for the Lanczos estimate
	vc      *gmg.VCycle       // the blocked Q1 V-cycle (Solver.velGMG)
	emb     *embed
	q1Fixed []int32        // owned Q1 entries 3i+c constrained for component c
	diag    []*[27]float64 // unit scalar stiffness diagonals (aliased per level)
	dinv    *la.Vec        // 3 per owned Q2 node
	dinv0   *la.Vec        // component 0's, on the Q2 node layout
	lmax    float64

	// Work vectors: 3 per owned Q2 node, then 3 per owned Q1 node. They
	// carry no layout; only local operations touch them.
	x, b, r, d, z, w *la.Vec
	rc, zc           *la.Vec
}

// newPCoarse builds the p-level on the solver's constraint table and
// blocked V-cycle (local).
func newPCoarse(s *Solver) *pCoarse {
	m, q2 := s.M, s.q2
	kern := fem.SumFactorKernelsFor(m, s.Dom)
	p := &pCoarse{
		q2:    q2,
		op:    matfree.NewScalarQ2(q2, kern, s.cons.Fixed, 3),
		op0:   matfree.NewScalarQ2(q2, kern, s.cons.Fixed, 1),
		vc:    s.velGMG,
		emb:   newEmbed(q2),
		diag:  make([]*[27]float64, len(m.Leaves)),
		dinv0: la.NewVec(q2.Layout()),
	}
	for c, bc := range s.compBC {
		for i := 0; i < m.NumOwned; i++ {
			if _, is := bc(fem.NodeCoord(m, s.Dom, i)); is {
				p.q1Fixed = append(p.q1Fixed, int32(3*i+c))
			}
		}
	}
	byLevel := map[uint8]*[27]float64{}
	for ei, leaf := range m.Leaves {
		d := byLevel[leaf.Level]
		if d == nil {
			K := fem.Q2StiffnessBrick(s.Dom.ElemSize(leaf), 1)
			d = new([27]float64)
			for a := 0; a < 27; a++ {
				d[a] = K[a][a]
			}
			byLevel[leaf.Level] = d
		}
		p.diag[ei] = d
	}
	work := func(n int) *la.Vec { return &la.Vec{Data: make([]float64, 3*n)} }
	p.dinv = work(q2.NumOwned)
	p.x, p.b, p.r = work(q2.NumOwned), work(q2.NumOwned), work(q2.NumOwned)
	p.d, p.z, p.w = work(q2.NumOwned), work(q2.NumOwned), work(q2.NumOwned)
	p.rc, p.zc = work(m.NumOwned), work(m.NumOwned)
	return p
}

// refresh re-derives the p-level smoother numerics for a new viscosity
// (collective): the eta-scaled Q2 stiffness diagonal (one flat scan +
// ghost scatter-add, shared by the three components) and the Chebyshev
// lambda_max estimate.
func (p *pCoarse) refresh(etaElem []float64) {
	q2 := p.q2
	acc := make([]float64, q2.NSlots())
	for ei, ns := range q2.Nodes {
		d := p.diag[ei]
		eta := etaElem[ei]
		for n := 0; n < 27; n++ {
			acc[ns[n]] += eta * d[n]
		}
	}
	diag := la.NewVec(q2.Layout())
	copy(diag.Data, acc[:q2.NumOwned])
	q2.GX.ScatterAdd(acc[q2.NumOwned:], diag.Data)

	p.op.SetViscosity(etaElem)
	p.op0.SetViscosity(etaElem)
	for i, v := range diag.Data {
		inv := 1.0
		if v != 0 {
			inv = 1 / v
		}
		p.dinv.Data[3*i], p.dinv.Data[3*i+1], p.dinv.Data[3*i+2] = inv, inv, inv
	}
	for _, f := range p.op.OwnFixed() {
		p.dinv.Data[f] = 1
	}
	for i := range p.dinv0.Data {
		p.dinv0.Data[i] = p.dinv.Data[3*i]
	}
	p.lmax = krylov.EstimateLambdaMaxLanczos(p.op0, p.dinv0, q2LanczosSteps)
}

// apply computes the velocity block of y = M^-1 x on the interleaved
// 4-per-node dof vectors: Chebyshev pre-smoothing from zero, one Q1
// V-cycle correction through the embedding, Chebyshev post-smoothing,
// with identity pass-through at constrained dofs (collective).
func (p *pCoarse) apply(x, y []float64) {
	n := p.q2.NumOwned
	for i := 0; i < n; i++ {
		copy(p.b.Data[3*i:3*i+3], x[4*i:4*i+3])
	}
	for _, e := range p.op.OwnFixed() {
		p.b.Data[e] = 0
	}
	p.x.Zero()
	p.chebyshev()
	p.op.Apply(p.x, p.r)
	p.r.Scale(-1)
	p.r.AXPY(1, p.b)
	p.emb.restrict(p.r, p.rc)
	for _, e := range p.q1Fixed {
		p.rc.Data[e] = 0
	}
	p.vc.Apply(p.rc, p.zc)
	p.emb.prolong(p.zc, p.z)
	for _, e := range p.op.OwnFixed() {
		p.z.Data[e] = 0
	}
	p.x.AXPY(1, p.z)
	p.chebyshev()
	for i := 0; i < n; i++ {
		copy(y[4*i:4*i+3], p.x.Data[3*i:3*i+3])
	}
	for _, e := range p.op.OwnFixed() {
		at := 4*(int(e)/3) + int(e)%3
		y[at] = x[at]
	}
}

// chebyshev runs one Chebyshev(degree) smoothing application improving
// x toward A^-1 b on the interval [1.1*lmax/ratio, 1.1*lmax] of the
// Jacobi-preconditioned spectrum.
func (p *pCoarse) chebyshev() {
	beta := 1.1 * p.lmax
	alpha := beta / q2ChebRatio
	theta := (beta + alpha) / 2
	delta := (beta - alpha) / 2
	sigma := theta / delta
	rho := 1 / sigma

	p.op.Apply(p.x, p.r)
	p.r.Scale(-1)
	p.r.AXPY(1, p.b)
	p.z.PointwiseMult(p.dinv, p.r)
	p.d.Copy(p.z)
	p.d.Scale(1 / theta)
	for k := 1; k < q2ChebDegree; k++ {
		p.x.AXPY(1, p.d)
		p.op.Apply(p.d, p.w)
		p.r.AXPY(-1, p.w)
		p.z.PointwiseMult(p.dinv, p.r)
		rhoNew := 1 / (2*sigma - rho)
		p.d.Scale(rhoNew * rho)
		p.d.AXPY(2*rhoNew/delta, p.z)
		rho = rhoNew
	}
	p.x.AXPY(1, p.d)
}
