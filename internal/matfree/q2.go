package matfree

import (
	"rhea/internal/fem"
	"rhea/internal/la"
	"rhea/internal/mesh"
)

// Q2 (27-node Taylor-Hood) counterparts of the Q1 slot map and coupled
// operator. The Q2 scope is conforming meshes only (mesh.ExtractQ2
// fails fast otherwise), so there are no hanging-node constraints:
// every element node resolves to exactly one slot and the gathers and
// scatters are straight copies. The element kernel is the
// sum-factorized tensor-product apply (fem.SumFactorKernels, O(k^4)
// work per element); per-worker scratch keeps the hot loop
// allocation-free on the shared pool.

// Q2SlotMap is the compact per-rank numbering of the Q2 node set:
// owned nodes first (slot = gid-Offset), then the distinct off-rank
// nodes this rank's elements reference, with one la.GhostExchange plan
// covering the ghost tail in both directions. The coupled operator
// (block=4) and the scalar p-level smoother operator (block=1) share
// the structure.
type Q2SlotMap struct {
	NOwned int
	Nodes  [][27]int32 // aligned with mesh leaves, lexicographic node order
	GX     *la.GhostExchange

	layout *la.Layout // node layout (NumOwned per rank)
	offset int64
}

// NewQ2SlotMap builds the slot numbering and ghost-exchange plan for
// the Q2 node layer (collective). block is the number of float64
// components carried per node.
func NewQ2SlotMap(q2 *mesh.Q2Mesh, block int) *Q2SlotMap {
	sm := &Q2SlotMap{NOwned: q2.NumOwned, offset: q2.Offset}
	sm.layout = la.NewLayout(q2.M.Rank, q2.NumOwned)

	ghostSet := map[int64]struct{}{}
	hi := q2.Offset + int64(q2.NumOwned)
	for ei := range q2.Nodes {
		for n := 0; n < 27; n++ {
			if g := q2.Nodes[ei][n]; g < q2.Offset || g >= hi {
				ghostSet[g] = struct{}{}
			}
		}
	}
	ghosts := make([]int64, 0, len(ghostSet))
	for g := range ghostSet {
		ghosts = append(ghosts, g)
	}
	sm.GX = la.NewGhostExchange(sm.layout, ghosts, block)
	slotOf := make(map[int64]int32, q2.NumOwned+sm.GX.NumGhosts())
	for i := 0; i < q2.NumOwned; i++ {
		slotOf[q2.Offset+int64(i)] = int32(i)
	}
	for s, g := range sm.GX.Ghosts() {
		slotOf[g] = int32(q2.NumOwned + s)
	}
	sm.Nodes = make([][27]int32, len(q2.Nodes))
	for ei := range q2.Nodes {
		for n := 0; n < 27; n++ {
			sm.Nodes[ei][n] = slotOf[q2.Nodes[ei][n]]
		}
	}
	return sm
}

// NSlots returns the total slot count (owned + ghosts).
func (sm *Q2SlotMap) NSlots() int { return sm.NOwned + sm.GX.NumGhosts() }

// GIDAt returns the global Q2 node id occupying a slot.
func (sm *Q2SlotMap) GIDAt(s int) int64 {
	if s < sm.NOwned {
		return sm.offset + int64(s)
	}
	return sm.GX.Ghosts()[s-sm.NOwned]
}

// Layout returns the la.Layout over the owned Q2 nodes.
func (sm *Q2SlotMap) Layout() *la.Layout { return sm.layout }

// q2work is one worker's scratch for the Q2 element loops: the
// sum-factorization stage buffers plus the per-component force buffers
// of the right-hand-side loop.
type q2work struct {
	s      fem.SFScratch
	f, mf  [27]float64
	xe, ye [108]float64
}

// OperatorQ2 is the matrix-free coupled Taylor-Hood Stokes operator on
// one rank: Q2 velocity, Q1 (vertex) pressure, interleaved dof layout
// dof(g,c) = 4g + c over the Q2 node gids with the pressure component
// active at vertex nodes only (non-vertex pressure dofs are constrained
// to zero by the boundary callback stokes builds). It implements
// krylov.Operator over the 4*NumOwned Q2 dof layout.
type OperatorQ2 struct {
	q2     *mesh.Q2Mesh
	layout *la.Layout
	eta    []float64
	kern   []*fem.SumFactorKernels
	nodes  [][27]int32
	gx     *la.GhostExchange
	nOwned int
	nSlots int

	fixedIdx []int32   // slot-space dof indices read as zero
	bcval    []float64 // len nSlots*4: Dirichlet values at constrained dofs
	ownFixed []int32   // owned dof indices with identity rows

	pool   *pool
	xbuf   []float64
	work   []*q2work                               // per worker
	loopFn func(w, lo, hi int, src, dst []float64) // bound elementLoop (avoids a per-Apply method-value allocation)
}

// DofBC reports whether dof component c (0..2 velocity, 3 pressure) of
// the Q2 node with global id g is Dirichlet-constrained, and its value.
// It must be evaluable for every Q2 node the rank references.
type DofBC func(g int64, c int) (float64, bool)

// NewQ2 builds the Q2 operator for the extracted second-order node
// layer (collective: it sets up the ghost-exchange plan). layout must
// be the 4*NumOwned Q2 dof layout; bc must be evaluable for every Q2
// node gid the rank references and is responsible for deactivating
// non-vertex pressure dofs. etaElem may be nil and supplied later via
// SetViscosity.
func NewQ2(q2 *mesh.Q2Mesh, dom fem.Domain, layout *la.Layout, etaElem []float64, bc DofBC, opts Options) *OperatorQ2 {
	op := &OperatorQ2{q2: q2, layout: layout, eta: etaElem, nOwned: q2.NumOwned}
	op.kern = fem.SumFactorKernelsFor(q2.M, dom)

	sm := NewQ2SlotMap(q2, 4)
	op.gx = sm.GX
	op.nSlots = sm.NSlots()
	op.nodes = sm.Nodes

	op.bcval = make([]float64, op.nSlots*4)
	for s := 0; s < op.nSlots; s++ {
		g := sm.GIDAt(s)
		for c := 0; c < 4; c++ {
			if v, is := bc(g, c); is {
				op.fixedIdx = append(op.fixedIdx, int32(4*s+c))
				op.bcval[4*s+c] = v
				if s < q2.NumOwned {
					op.ownFixed = append(op.ownFixed, int32(4*s+c))
				}
			}
		}
	}

	op.pool = newPool(opts.Workers, q2.M.Rank.Size(), len(op.nodes), op.nSlots*4)
	op.xbuf = make([]float64, op.nSlots*4)
	op.work = make([]*q2work, op.pool.workers)
	for w := range op.work {
		op.work[w] = &q2work{}
	}
	op.loopFn = op.elementLoop
	return op
}

// SetViscosity replaces the per-element viscosity (local, free).
func (op *OperatorQ2) SetViscosity(etaElem []float64) { op.eta = etaElem }

// elementLoop runs the sum-factorized ye = A_e xe over elements
// [lo,hi), accumulating into dst. No constraint weights: the Q2 scope
// is conforming meshes, so gather and scatter are direct slot copies.
func (op *OperatorQ2) elementLoop(w, lo, hi int, src, dst []float64) {
	wk := op.work[w]
	for ei := lo; ei < hi; ei++ {
		ns := &op.nodes[ei]
		for n := 0; n < 27; n++ {
			base := int(ns[n]) * 4
			wk.xe[4*n] = src[base]
			wk.xe[4*n+1] = src[base+1]
			wk.xe[4*n+2] = src[base+2]
			wk.xe[4*n+3] = src[base+3]
		}
		op.kern[ei].Apply(op.eta[ei], &wk.xe, &wk.ye, &wk.s)
		for n := 0; n < 27; n++ {
			base := int(ns[n]) * 4
			dst[base] += wk.ye[4*n]
			dst[base+1] += wk.ye[4*n+1]
			dst[base+2] += wk.ye[4*n+2]
			dst[base+3] += wk.ye[4*n+3]
		}
	}
}

// Apply computes y = A x for the Dirichlet-eliminated coupled
// Taylor-Hood operator (collective): constrained columns are read as
// zero and constrained owned rows return x unchanged (identity).
func (op *OperatorQ2) Apply(x, y *la.Vec) {
	copy(op.xbuf[:op.nOwned*4], x.Data)
	op.gx.Gather(x.Data, op.xbuf[op.nOwned*4:])
	for _, idx := range op.fixedIdx {
		op.xbuf[idx] = 0
	}
	acc := op.pool.run(op.xbuf, op.loopFn)
	copy(y.Data, acc[:op.nOwned*4])
	op.gx.ScatterAdd(acc[op.nOwned*4:], y.Data)
	for _, idx := range op.ownFixed {
		y.Data[idx] = x.Data[idx]
	}
}

// rhsLoop runs the Q2 right-hand-side element loop: consistent
// body-force loads (tri-quadratic mass apply per component) minus the
// raw operator applied to the Dirichlet lift in src.
func (op *OperatorQ2) rhsLoop(force [][27][3]float64, zeroLift bool) func(w, lo, hi int, src, dst []float64) {
	return func(w, lo, hi int, src, dst []float64) {
		wk := op.work[w]
		for ei := lo; ei < hi; ei++ {
			ns := &op.nodes[ei]
			if zeroLift {
				for i := range wk.ye {
					wk.ye[i] = 0
				}
			} else {
				for n := 0; n < 27; n++ {
					base := int(ns[n]) * 4
					wk.xe[4*n] = src[base]
					wk.xe[4*n+1] = src[base+1]
					wk.xe[4*n+2] = src[base+2]
					wk.xe[4*n+3] = src[base+3]
				}
				op.kern[ei].Apply(op.eta[ei], &wk.xe, &wk.ye, &wk.s)
			}
			for i := range wk.ye {
				wk.ye[i] = -wk.ye[i]
			}
			if force != nil {
				for c := 0; c < 3; c++ {
					for n := 0; n < 27; n++ {
						wk.f[n] = force[ei][n][c]
					}
					op.kern[ei].ApplyMass(&wk.f, &wk.mf, &wk.s)
					for n := 0; n < 27; n++ {
						wk.ye[4*n+c] += wk.mf[n]
					}
				}
			}
			for n := 0; n < 27; n++ {
				base := int(ns[n]) * 4
				dst[base] += wk.ye[4*n]
				dst[base+1] += wk.ye[4*n+1]
				dst[base+2] += wk.ye[4*n+2]
				dst[base+3] += wk.ye[4*n+3]
			}
		}
	}
}

// RHS assembles the right-hand side matching the eliminated operator
// without forming any matrix (collective). force gives the body-force
// vector at each element's 27 nodes (nil for none).
func (op *OperatorQ2) RHS(force [][27][3]float64) *la.Vec {
	zeroLift := true
	for i := range op.xbuf {
		op.xbuf[i] = 0
	}
	for _, idx := range op.fixedIdx {
		op.xbuf[idx] = op.bcval[idx]
		if op.bcval[idx] != 0 {
			zeroLift = false
		}
	}
	acc := op.pool.run(op.xbuf, op.rhsLoop(force, zeroLift))
	b := la.NewVec(op.layout)
	copy(b.Data, acc[:op.nOwned*4])
	op.gx.ScatterAdd(acc[op.nOwned*4:], b.Data)
	for _, idx := range op.ownFixed {
		b.Data[idx] = op.bcval[idx]
	}
	return b
}

// ScalarQ2 is the matrix-free constrained scalar diffusion operator on
// the Q2 node set for one velocity component — the p-level smoother
// operator of the Q2->Q1 coarsening preconditioner: constrained
// columns read zero, constrained owned rows are identity. It
// implements krylov.Operator over the Q2 node layout. Like the gmg
// level operators it runs single-threaded: smoother applies are
// latency-bound at the sizes the V-cycle sees.
type ScalarQ2 struct {
	sm   *Q2SlotMap
	kern []*fem.SumFactorKernels
	eta  []float64

	fixedSlot []int32
	ownFixed  []int32
	xbuf, acc []float64
	s         fem.SFScratch
	xe, ye    [27]float64
}

// NewScalarQ2 builds the component operator over a shared block-1 Q2
// slot map and kernel table; fixed reports the component's Dirichlet
// set per Q2 node gid. The viscosity is attached via SetViscosity.
func NewScalarQ2(sm *Q2SlotMap, kern []*fem.SumFactorKernels, fixed func(g int64) bool) *ScalarQ2 {
	o := &ScalarQ2{sm: sm, kern: kern}
	n := sm.NSlots()
	for s := 0; s < n; s++ {
		if fixed(sm.GIDAt(s)) {
			o.fixedSlot = append(o.fixedSlot, int32(s))
			if s < sm.NOwned {
				o.ownFixed = append(o.ownFixed, int32(s))
			}
		}
	}
	o.xbuf = make([]float64, n)
	o.acc = make([]float64, n)
	return o
}

// SetViscosity replaces the per-element viscosity (local, free).
func (o *ScalarQ2) SetViscosity(etaElem []float64) { o.eta = etaElem }

// OwnFixed returns the owned node indices with identity rows.
func (o *ScalarQ2) OwnFixed() []int32 { return o.ownFixed }

// Apply computes y = A x (collective: one ghost gather + scatter-add).
func (o *ScalarQ2) Apply(x, y *la.Vec) {
	sm := o.sm
	n := sm.NOwned
	copy(o.xbuf[:n], x.Data)
	sm.GX.Gather(x.Data, o.xbuf[n:])
	for _, s := range o.fixedSlot {
		o.xbuf[s] = 0
	}
	for i := range o.acc {
		o.acc[i] = 0
	}
	for ei := range sm.Nodes {
		ns := &sm.Nodes[ei]
		for a := 0; a < 27; a++ {
			o.xe[a] = o.xbuf[ns[a]]
		}
		o.kern[ei].ApplyScalar(o.eta[ei], &o.xe, &o.ye, &o.s)
		for a := 0; a < 27; a++ {
			o.acc[ns[a]] += o.ye[a]
		}
	}
	copy(y.Data, o.acc[:n])
	sm.GX.ScatterAdd(o.acc[n:], y.Data)
	for _, s := range o.ownFixed {
		y.Data[s] = x.Data[s]
	}
}
