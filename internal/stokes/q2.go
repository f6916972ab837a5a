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
// the interleaved layout stays at index 4g+3 but is active at vertex
// nodes only (non-vertex pressure slots are constrained to zero).
//
// The operator is always matrix-free (the sum-factorized tensor-product
// kernels of fem.SumFactorKernels), and the velocity preconditioner
// enters the existing h-multigrid through one p-coarsening level:
// Chebyshev smoothing on the matrix-free Q2 scalar diffusion operator,
// then restriction through the Q1->Q2 embedding transpose down to the
// vertex space, where the unchanged gmg V-cycle (and all its
// agglomeration machinery) does the heavy lifting.

// setupQ2 is the Order-2 half of Setup: Q2 dof layout, geometric
// Dirichlet data, the matrix-free coupled operator, and the p-coarsened
// velocity preconditioner on top of the Q1 GMG hierarchy (collective).
func (s *Solver) setupQ2() {
	m, dom, opts := s.M, s.Dom, s.opts
	if !opts.MatrixFree || opts.Precond != PrecondGMG {
		panic("stokes: Order 2 requires MatrixFree and PrecondGMG (no assembled or AMG path)")
	}
	q2 := m.Q2
	if q2 == nil {
		panic("stokes: Order 2 requires the Q2 node layer — call mesh.ExtractQ2 and set Mesh.Q2")
	}
	s.q2 = q2
	s.Layout = la.NewLayout(m.Rank, 4*q2.NumOwned)
	s.q2L = la.NewLayout(m.Rank, q2.NumOwned)

	// Dirichlet data is geometric: every referenced Q2 gid resolves to a
	// half-unit position locally (axis-aligned scope), so no mask gather
	// rounds are needed. The pressure pin stays at gid 0 — the domain
	// origin is a vertex in both numberings.
	bc := s.bc
	s.dofBC = func(g int64, c int) (float64, bool) {
		p2 := q2.RefPos(g)
		if c == 3 {
			if g == 0 { // pressure pin
				return 0, true
			}
			if !q2.IsVertex(p2) { // non-vertex node: no pressure dof
				return 0, true
			}
			return 0, false
		}
		fixed, vals := bc(dom.CoordHalf(p2))
		if fixed[c] {
			return vals[c], true
		}
		return 0, false
	}
	s.MFQ2 = matfree.NewQ2(q2, dom, s.Layout, nil, s.dofBC, opts.MatFree)
	s.Op = s.MFQ2

	// The h-hierarchy lives on the Q1 vertex mesh, exactly as in the
	// Order-1 GMG path; p-coarsening feeds it from the Q2 level.
	s.GMGH = gmg.NewHierarchy(m, dom, opts.GMG)
	if s.GMGH.Degenerate() {
		le := s.GMGH.LevelElems()
		panic(fmt.Sprintf(
			"stokes: GMG hierarchy is degenerate — coarsening stopped at %d global elements (target <= %d) after %d levels",
			le[len(le)-1], s.GMGH.CoarseTarget(), s.GMGH.NumLevels()))
	}
	s.q2sm = matfree.NewQ2SlotMap(q2, 1)
	s.sfKern = fem.SumFactorKernelsFor(m, dom)
	s.emb = newEmbed(q2)

	// Per-element unit scalar stiffness diagonals, aliased per octree
	// level, for the Chebyshev-Jacobi smoother of the p-level.
	s.sfDiag = make([]*[27]float64, len(m.Leaves))
	byLevel := map[uint8]*[27]float64{}
	for ei, leaf := range m.Leaves {
		d := byLevel[leaf.Level]
		if d == nil {
			K := fem.Q2StiffnessBrick(dom.ElemSize(leaf), 1)
			d = new([27]float64)
			for a := 0; a < 27; a++ {
				d[a] = K[a][a]
			}
			byLevel[leaf.Level] = d
		}
		s.sfDiag[ei] = d
	}

	for c := 0; c < 3; c++ {
		s.pcs[c] = newPCoarse(s, c)
		s.velPC[c] = s.pcs[c]
	}
	s.xc2 = la.NewVec(s.q2L)
	s.yc2 = la.NewVec(s.q2L)
}

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
	s.MFQ2.SetViscosity(etaElem)
	s.B = s.MFQ2.RHS(force27)
	s.GMGH.Rebuild(etaElem)
	s.refreshPLevel(etaElem)
	s.updateSchur(etaElem)
	return s
}

// refreshPLevel re-derives the p-level smoother numerics for a new
// viscosity (collective): the eta-scaled Q2 stiffness diagonal (one
// flat scan + ghost scatter-add, shared by the three components) and
// the Chebyshev lambda_max estimate (one short Lanczos run, shared —
// the component spectra differ only by boundary identity rows, well
// inside the 1.1 safety factor, mirroring the gmg levels).
func (s *Solver) refreshPLevel(etaElem []float64) {
	sm := s.q2sm
	acc := make([]float64, sm.NSlots())
	for ei := range sm.Nodes {
		d := s.sfDiag[ei]
		eta := etaElem[ei]
		ns := &sm.Nodes[ei]
		for n := 0; n < 27; n++ {
			acc[ns[n]] += eta * d[n]
		}
	}
	diag := la.NewVec(s.q2L)
	copy(diag.Data, acc[:sm.NOwned])
	sm.GX.ScatterAdd(acc[sm.NOwned:], diag.Data)

	lmax := 0.0
	for c := 0; c < 3; c++ {
		pc := s.pcs[c]
		pc.op.SetViscosity(etaElem)
		for i, v := range diag.Data {
			if v != 0 {
				pc.dinv.Data[i] = 1 / v
			} else {
				pc.dinv.Data[i] = 1
			}
		}
		for _, f := range pc.op.OwnFixed() {
			pc.dinv.Data[f] = 1
		}
		if c == 0 {
			lmax = krylov.EstimateLambdaMaxLanczos(pc.op, pc.dinv, q2LanczosSteps)
		}
		pc.lmax = lmax
	}
}

// precondQ2 is the Order-2 block-diagonal preconditioner: p-coarsened
// multigrid per velocity component, and the inverse-viscosity lumped
// pressure mass (computed on the Q1 vertex space) mapped onto the
// active vertex pressure dofs; inactive pressure slots pass through.
func (s *Solver) precondQ2() krylov.Operator {
	return krylov.OpFunc(func(x, y *la.Vec) {
		n := s.q2.NumOwned
		for c := 0; c < 3; c++ {
			for i := 0; i < n; i++ {
				s.xc2.Data[i] = x.Data[4*i+c]
			}
			s.velPC[c].Apply(s.xc2, s.yc2)
			for i := 0; i < n; i++ {
				y.Data[4*i+c] = s.yc2.Data[i]
			}
		}
		for i := 0; i < n; i++ {
			if li := s.q2.VertLocal[i]; li >= 0 {
				y.Data[4*i+3] = s.schurInv.Data[li] * x.Data[4*i+3]
			} else {
				y.Data[4*i+3] = x.Data[4*i+3]
			}
		}
	})
}

// embed is the Q1->Q2 nodal embedding E and its exact transpose: a Q2
// nodal field interpolating a vertex field takes the vertex value at
// vertices, edge-midpoint averages of 2, face averages of 4 and the
// center average of 8 — the trilinear shape values at the node. Each
// owned Q2 node's masters are corners of a local element, resolved to
// Q1 slot space (the vertex mesh's node slots), so prolongation is one
// ghost gather + a flat scan and restriction is the flat scan's
// transpose + one ghost scatter-add — the same dual pair the
// matrix-free operators use, which is what makes E and E^T exact
// transposes across ranks.
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
	for ei, leaf := range m.Leaves {
		for nn := 0; nn < 27; nn++ {
			li, ok := q2.LocalIndex2(mesh.Q2NodePos2(leaf, nn))
			if !ok || masters[li] != nil {
				continue
			}
			i, j, k := fem.Q2NodeOffset(nn)
			for c := 0; c < 8; c++ {
				wc := w1d[i][c&1] * w1d[j][c>>1&1] * w1d[k][c>>2&1]
				if wc == 0 {
					continue
				}
				cr := &m.Corners[ei][c]
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
	ns := m.NSlots()
	e.xbuf = make([]float64, ns)
	e.acc = make([]float64, ns)
	return e
}

// prolong computes y = E xc (collective: one Q1 ghost gather).
func (e *embed) prolong(xc, y *la.Vec) {
	n1 := e.m.NumOwned
	copy(e.xbuf[:n1], xc.Data)
	e.m.GX.Gather(xc.Data, e.xbuf[n1:])
	for i := range y.Data {
		var v float64
		for t := e.start[i]; t < e.start[i+1]; t++ {
			v += e.w[t] * e.xbuf[e.slot[t]]
		}
		y.Data[i] = v
	}
}

// restrict computes rc = E^T r (collective: one Q1 ghost scatter-add).
func (e *embed) restrict(r, rc *la.Vec) {
	for i := range e.acc {
		e.acc[i] = 0
	}
	for i := range r.Data {
		v := r.Data[i]
		for t := e.start[i]; t < e.start[i+1]; t++ {
			e.acc[e.slot[t]] += e.w[t] * v
		}
	}
	n1 := e.m.NumOwned
	copy(rc.Data, e.acc[:n1])
	e.m.GX.ScatterAdd(e.acc[n1:], rc.Data)
}

// The p-level smoother's settings (see pCoarse).
const (
	q2ChebDegree   = 3
	q2ChebRatio    = 4
	q2LanczosSteps = 6
)

// pCoarse is the p-coarsened multigrid preconditioner for one Q2
// velocity component: Chebyshev smoothing on the matrix-free Q2 scalar
// diffusion operator around a coarse correction computed by the
// unchanged Q1 geometric V-cycle through the embedding transpose pair.
// Symmetric smoothing, transpose transfers and an SPD coarse operator
// keep it SPD, so it is safe inside MINRES. It implements
// krylov.Operator over the Q2 node layout.
//
// Its smoother is one Chebyshev(q2ChebDegree) application before and one
// after the correction, on the interval [1.1*lmax/q2ChebRatio, 1.1*lmax]
// of the Jacobi-preconditioned spectrum, lmax from a q2LanczosSteps-step
// Lanczos estimate.
type pCoarse struct {
	op      *matfree.ScalarQ2
	q1      krylov.Operator // the component's gmg V-cycle
	emb     *embed
	q1Fixed []int32 // owned Q1 nodes constrained for this component

	dinv *la.Vec
	lmax float64

	x, b, r, d, z, w *la.Vec // Q2 node layout
	rc, zc           *la.Vec // Q1 node layout
}

func newPCoarse(s *Solver, c int) *pCoarse {
	p := &pCoarse{
		q1:  s.GMGH.Precond(s.compBC[c]),
		emb: s.emb,
	}
	bc := s.compBC[c]
	p.op = matfree.NewScalarQ2(s.q2sm, s.sfKern, func(g int64) bool {
		_, is := s.dofBC(g, c)
		return is
	})
	for i := 0; i < s.M.NumOwned; i++ {
		if _, is := bc(fem.NodeCoord(s.M, s.Dom, i)); is {
			p.q1Fixed = append(p.q1Fixed, int32(i))
		}
	}
	p.dinv = la.NewVec(s.q2L)
	p.x = la.NewVec(s.q2L)
	p.b = la.NewVec(s.q2L)
	p.r = la.NewVec(s.q2L)
	p.d = la.NewVec(s.q2L)
	p.z = la.NewVec(s.q2L)
	p.w = la.NewVec(s.q2L)
	p.rc = la.NewVec(s.nodeL)
	p.zc = la.NewVec(s.nodeL)
	return p
}

// Apply computes y = M^-1 x: Chebyshev pre-smoothing from zero, one Q1
// V-cycle correction through the embedding, Chebyshev post-smoothing,
// with identity pass-through at constrained dofs (collective).
func (p *pCoarse) Apply(x, y *la.Vec) {
	p.b.Copy(x)
	for _, s := range p.op.OwnFixed() {
		p.b.Data[s] = 0
	}
	p.x.Zero()
	p.chebyshev()
	p.op.Apply(p.x, p.r)
	p.r.Scale(-1)
	p.r.AXPY(1, p.b)
	p.emb.restrict(p.r, p.rc)
	for _, s := range p.q1Fixed {
		p.rc.Data[s] = 0
	}
	p.q1.Apply(p.rc, p.zc)
	p.emb.prolong(p.zc, p.z)
	for _, s := range p.op.OwnFixed() {
		p.z.Data[s] = 0
	}
	p.x.AXPY(1, p.z)
	p.chebyshev()
	y.Copy(p.x)
	for _, s := range p.op.OwnFixed() {
		y.Data[s] = x.Data[s]
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
