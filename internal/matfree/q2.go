package matfree

import (
	"rhea/internal/fem"
	"rhea/internal/la"
	"rhea/internal/mesh"
)

// The Q2 (27-node Taylor-Hood) element loops of the coupled operator and
// the p-level's scalar operator. The Q2 scope is conforming meshes only
// (mesh.ExtractQ2 fails fast otherwise), so there are no hanging-node
// constraints: every element node is one slot of the layer's numbering
// (mesh.Q2Mesh.Nodes) and the gathers and scatters are straight copies.
// The element kernel is the sum-factorized tensor-product apply
// (fem.SumFactorKernels, O(k^4) work per element); the operator's one
// scratch keeps the hot loop allocation-free.

// q2work is the scratch of the Q2 element loops: the sum-factorization
// stage buffers plus the per-component force buffers of the
// right-hand-side loop.
type q2work struct {
	s      fem.SFScratch
	f, mf  [27]float64
	xe, ye [108]float64
}

// NewQ2 builds the coupled Taylor-Hood operator — Q2 velocity, Q1
// (vertex) pressure — on the extracted second-order node layer (local).
// The dof layout is dof(s,c) = 4s + c over the layer's slots with the
// pressure component active at vertex nodes only: cons, indexed by slot
// with Frames nil, must constrain the non-vertex pressure dofs to zero.
// layout must be the 4*NumOwned Q2 dof layout; etaElem may be nil and
// supplied later via SetViscosity.
func NewQ2(q2 *mesh.Q2Mesh, dom fem.Domain, layout *la.Layout, etaElem []float64, cons Constraints) *Operator {
	op := newOperator(layout, etaElem, q2.GX, q2.NumOwned, cons)
	op.sf = fem.SumFactorKernelsFor(q2.M, dom)
	op.nodes = q2.Nodes
	op.work = &q2work{}
	op.loopFn = op.elementLoopQ2
	return op
}

// gatherQ2 copies the 108 element dofs out of the slot-space buffer.
func gatherQ2(ns *[27]int32, src []float64, xe *[108]float64) {
	for n := 0; n < 27; n++ {
		base := int(ns[n]) * 4
		xe[4*n] = src[base]
		xe[4*n+1] = src[base+1]
		xe[4*n+2] = src[base+2]
		xe[4*n+3] = src[base+3]
	}
}

// scatterQ2 adds the 108 element results into the slot-space accumulator.
func scatterQ2(ns *[27]int32, ye *[108]float64, dst []float64) {
	for n := 0; n < 27; n++ {
		base := int(ns[n]) * 4
		dst[base] += ye[4*n]
		dst[base+1] += ye[4*n+1]
		dst[base+2] += ye[4*n+2]
		dst[base+3] += ye[4*n+3]
	}
}

// elementLoopQ2 runs the sum-factorized ye = A_e xe over every element
// in order, accumulating into dst.
func (op *Operator) elementLoopQ2(src, dst []float64) {
	wk := op.work
	for ei := range op.nodes {
		ns := &op.nodes[ei]
		gatherQ2(ns, src, &wk.xe)
		op.sf[ei].Apply(op.eta[ei], &wk.xe, &wk.ye, &wk.s)
		scatterQ2(ns, &wk.ye, dst)
	}
}

// rhsLoopQ2 runs the Q2 right-hand-side element loop: consistent
// body-force loads (tri-quadratic mass apply per component) minus the
// raw operator applied to the Dirichlet lift in src.
func (op *Operator) rhsLoopQ2(force [][27][3]float64) func(src, dst []float64) {
	return func(src, dst []float64) {
		wk := op.work
		for ei := range op.nodes {
			ns := &op.nodes[ei]
			if op.zeroLift {
				wk.ye = [108]float64{}
			} else {
				gatherQ2(ns, src, &wk.xe)
				op.sf[ei].Apply(op.eta[ei], &wk.xe, &wk.ye, &wk.s)
			}
			for i := range wk.ye {
				wk.ye[i] = -wk.ye[i]
			}
			if force != nil {
				for c := 0; c < 3; c++ {
					for n := 0; n < 27; n++ {
						wk.f[n] = force[ei][n][c]
					}
					op.sf[ei].ApplyMass(&wk.f, &wk.mf, &wk.s)
					for n := 0; n < 27; n++ {
						wk.ye[4*n+c] += wk.mf[n]
					}
				}
			}
			scatterQ2(ns, &wk.ye, dst)
		}
	}
}

// RHSQ2 assembles the right-hand side matching the eliminated Q2 operator
// (collective): RHS with the body-force vector given at each element's 27
// nodes (nil for none).
func (op *Operator) RHSQ2(force [][27][3]float64) *la.Vec { return op.rhs(op.rhsLoopQ2(force)) }

// ScalarQ2 is the matrix-free constrained scalar diffusion operator on
// the Q2 node set for the first w velocity components at once — the
// p-level smoother operator of the Q2->Q1 coarsening preconditioner.
// Vectors hold the w fields node-major (entry w*s+c is field c at node
// s), constrained columns read zero and constrained owned rows are
// identity. A field's arithmetic is the same whatever w is.
type ScalarQ2 struct {
	w      int
	nOwned int
	nodes  [][27]int32
	gx     *la.GhostExchange
	kern   []*fem.SumFactorKernels
	eta    []float64

	fixed     []int32 // slot-space entries read as zero
	ownFixed  []int32 // owned entries with identity rows
	xbuf, acc []float64
	s         fem.SFScratch
	xe, ye    [27]float64
}

// NewScalarQ2 builds the w-field operator over the layer's slots and the
// kernel table (local); field c of the node in slot s is constrained
// where fixed[4*s+c] is (the coupled operator's Constraints.Fixed). The
// viscosity is attached via SetViscosity.
func NewScalarQ2(q2 *mesh.Q2Mesh, kern []*fem.SumFactorKernels, fixed []bool, w int) *ScalarQ2 {
	o := &ScalarQ2{w: w, nOwned: q2.NumOwned, nodes: q2.Nodes, gx: q2.GX, kern: kern}
	ns := q2.NSlots()
	for s := 0; s < ns; s++ {
		for c := 0; c < w; c++ {
			if fixed[4*s+c] {
				o.fixed = append(o.fixed, int32(w*s+c))
				if s < q2.NumOwned {
					o.ownFixed = append(o.ownFixed, int32(w*s+c))
				}
			}
		}
	}
	o.xbuf = make([]float64, w*ns)
	o.acc = make([]float64, w*ns)
	return o
}

// SetViscosity replaces the per-element viscosity (local, free).
func (o *ScalarQ2) SetViscosity(etaElem []float64) { o.eta = etaElem }

// OwnFixed returns the owned entries with identity rows.
func (o *ScalarQ2) OwnFixed() []int32 { return o.ownFixed }

// Apply computes y = A x (collective: one ghost gather + scatter-add).
// Only the owned entries of x and y are touched, w per node.
func (o *ScalarQ2) Apply(xv, yv *la.Vec) {
	x, y := xv.Data, yv.Data
	w, n := o.w, o.w*o.nOwned
	copy(o.xbuf[:n], x)
	o.gx.GatherBlock(w, x, o.xbuf[n:])
	for _, i := range o.fixed {
		o.xbuf[i] = 0
	}
	for i := range o.acc {
		o.acc[i] = 0
	}
	for ei := range o.nodes {
		ns := &o.nodes[ei]
		for c := 0; c < w; c++ {
			for a := 0; a < 27; a++ {
				o.xe[a] = o.xbuf[w*int(ns[a])+c]
			}
			o.kern[ei].ApplyScalar(o.eta[ei], &o.xe, &o.ye, &o.s)
			for a := 0; a < 27; a++ {
				o.acc[w*int(ns[a])+c] += o.ye[a]
			}
		}
	}
	copy(y, o.acc[:n])
	o.gx.ScatterAddBlock(w, o.acc[n:], y)
	for _, i := range o.ownFixed {
		y[i] = x[i]
	}
}
