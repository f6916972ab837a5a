// Package matfree applies the coupled variable-viscosity Stokes operator
// matrix-free: instead of assembling the global saddle-point CSR, each
// Krylov apply runs a fused loop over the local elements, evaluating the
// element operator's action on gathered corner values and scatter-adding
// the results through the hanging-node constraint weights. One element
// operator serves every mesh: the action is evaluated at the quadrature
// points from the element's geometry (fem.ElemGeom.StokesApply, four
// elements per AVX2 register where the CPU has it, gathered and scattered
// by generated AVX2 too, hanging corners included), reached through an
// 8-byte pointer per element (fem.ElemGeomOf). On mapped (forest, shell)
// meshes the pointer leads into the geometry the mesh already caches, so
// an apply streams 648 B of geometry per element (an inverse Jacobian and
// a weight per quadrature point, and the volume); on axis-aligned meshes
// every element of an octree level points at one cache-resident brick
// geometry. Nothing is tabulated per element. This is the paper-era
// route to speed and scale for memory-bound Stokes solves: the operator
// is never stored, and the per-apply data volume drops from CSR values +
// indices to nodal vectors plus geometry. Like every loop of a rank, the
// element loop runs on the rank's own goroutine: the ranks are the
// parallelism, and one accumulation order, element by element into one
// slot-space buffer, makes a rank's result independent of the host's
// core count.
//
// Nodes are addressed by the mesh's own slots (mesh.Mesh.GX) and
// off-rank coupling uses that one la.GhostExchange plan in both
// directions, at width 4: gather remote master-node blocks before the loop, scatter-add remote
// row contributions after it. Dirichlet conditions are eliminated in the
// operator — constrained columns read zero, constrained owned rows are
// identity. This is the only Stokes operator the solver applies; package
// stokes's tests hold it to an assembled coupled CSR oracle to rounding.
package matfree

import (
	"unsafe"

	"rhea/internal/fem"
	"rhea/internal/la"
	"rhea/internal/mesh"
)

// Constraints are the Dirichlet and boundary-frame tables of the coupled
// operator, indexed by node slot (mesh.Mesh.GX) and so covering every
// node the rank references. Fixed[4*s+c] marks dof component c (0..2
// velocity, 3 pressure) of the node in slot s Dirichlet-constrained and
// Val[4*s+c] holds its value. Frames[s], where non-nil, is the node's
// rotated boundary basis: Q's columns are the orthonormal (normal,
// tangent, tangent) directions, so v_cartesian = Q v_local and v_local =
// Q^T v_cartesian. Free-slip boundaries supply a frame at every slip
// node and constrain only local component 0 — at a framed slot the
// component index of Fixed and Val refers to the LOCAL frame — and the
// operator is then applied conjugated, Q^T A Q, so its solution vector
// lives in the local frames at those nodes. A nil Frames leaves the
// operator in plain Cartesian components.
type Constraints struct {
	Fixed  []bool
	Val    []float64
	Frames []*[3][3]float64
}

// Options is the matrix-free apply's configuration, of which New and
// NewQ2 read nothing: the element loop runs on the rank's goroutine.
type Options struct {
	// Workers is read only by rhea.Config.Validate, which refuses a value
	// above 1; 0 and 1 both mean the one loop there is.
	Workers int
}

// Operator is the matrix-free coupled Stokes operator on one rank, for
// either element order. It implements krylov.Operator over the
// interleaved 4N dof layout used by stokes.Solver. The constraint lists,
// slot buffers, Apply and RHS are shared; the element loop is chosen at
// construction — the mesh's 8 corner rows per element for Q1 (New),
// 27 direct node slots for Q2 (NewQ2, q2.go).
type Operator struct {
	layout *la.Layout // 4*nOwned dof layout
	eta    []float64  // per-element viscosity
	gx     *la.GhostExchange
	nOwned int
	nSlots int

	// Q1 element operator: each element's quadrature geometry
	// (fem.ElemGeomOf), applied at the quadrature points.
	geos []*fem.ElemGeom
	rows [][8]int32  // the mesh's corner rows (Mesh.Rows)
	hang []mesh.Hang // and its hanging corners (Mesh.Hang)

	// Q2 element operator: sum-factorised kernels, the element node
	// slots, and the loops' scratch.
	sf    []*fem.SumFactorKernels
	nodes [][27]int32
	work  *q2work

	fixedIdx []int32   // slot-space dof indices read as zero (constrained columns)
	bcval    []float64 // len nSlots*4: Dirichlet values at constrained dofs
	ownFixed []int32   // owned dof indices with identity rows
	zeroLift bool      // every Dirichlet value is zero

	// Rotated boundary frames (free-slip): slots whose velocity block is
	// conjugated into a local (normal, tangent, tangent) basis, and the
	// basis matrices (columns = local directions in Cartesian components).
	rotSlot []int32
	rotQ    [][3][3]float64

	xbuf   []float64                // nSlots*4 gathered input
	acc    []float64                // nSlots*4 element-loop accumulator
	loopFn func(src, dst []float64) // the order's element loop, bound once (avoids a per-Apply method-value allocation)
}

// New builds the Q1 operator for the extracted mesh, per-element
// viscosity and constraint tables (local). layout must be the 4N dof
// layout of the Stokes system. Everything built here — constraint index
// lists, the geometry table — depends only on the mesh and boundary
// conditions; the node numbering and ghost plan are the mesh's own. etaElem may be nil and supplied later via SetViscosity,
// which is how the persistent solver reuses one Operator across viscosity
// updates.
func New(m *mesh.Mesh, dom fem.Domain, layout *la.Layout, etaElem []float64, cons Constraints) *Operator {
	op := newOperator(layout, etaElem, m.GX, m.NumOwned, cons)
	op.rows, op.hang, op.geos = m.Rows, m.Hang, fem.ElemGeomOf(m, dom)
	op.loopFn = op.elementLoop
	if fem.HasAVX2() {
		checkLanesLayout()
		op.loopFn = op.elementLoop4
	}
	return op
}

// newOperator builds the order-independent half of an operator (local):
// the constraint index lists over the nOwned owned and gx's ghost slots,
// and the slot buffers.
func newOperator(layout *la.Layout, etaElem []float64, gx *la.GhostExchange, nOwned int, cons Constraints) *Operator {
	op := &Operator{layout: layout, eta: etaElem, gx: gx, nOwned: nOwned,
		nSlots: nOwned + gx.NumGhosts(), bcval: cons.Val, zeroLift: true}
	for s, Q := range cons.Frames {
		if Q != nil {
			op.rotSlot = append(op.rotSlot, int32(s))
			op.rotQ = append(op.rotQ, *Q)
		}
	}
	for idx, is := range cons.Fixed {
		if is {
			op.fixedIdx = append(op.fixedIdx, int32(idx))
			if idx < 4*nOwned {
				op.ownFixed = append(op.ownFixed, int32(idx))
			}
			if cons.Val[idx] != 0 {
				op.zeroLift = false
			}
		}
	}
	op.xbuf = make([]float64, op.nSlots*4)
	op.acc = make([]float64, op.nSlots*4)
	return op
}

// SetViscosity replaces the per-element viscosity the element operators
// are evaluated with (local, free). The mesh-dependent state — the constraint
// index lists — is untouched, so this is the entire
// viscosity-dependent half of the operator's setup.
func (op *Operator) SetViscosity(etaElem []float64) { op.eta = etaElem }

// gatherElem interpolates the 32 corner dofs of an element from the
// slot-space buffer: an independent corner reads its slot (weight exactly
// 1), a hanging one sums its masters (hangValue).
func gatherElem(row *[8]int32, hang []mesh.Hang, src []float64, xe *[32]float64) {
	for a := 0; a < 8; a++ {
		if s := row[a]; s >= 0 {
			p := src[4*int(s) : 4*int(s)+4]
			xe[4*a], xe[4*a+1], xe[4*a+2], xe[4*a+3] = p[0], p[1], p[2], p[3]
			continue
		}
		xe[4*a], xe[4*a+1], xe[4*a+2], xe[4*a+3] = hangValue(&hang[^row[a]], src)
	}
}

// scatterElem adds the 32 element results into the slot-space
// accumulator through the constraint weights (the transpose of
// gatherElem).
func scatterElem(row *[8]int32, hang []mesh.Hang, ye *[32]float64, dst []float64) {
	for a := 0; a < 8; a++ {
		if s := row[a]; s >= 0 {
			p := dst[4*int(s) : 4*int(s)+4]
			p[0] += ye[4*a]
			p[1] += ye[4*a+1]
			p[2] += ye[4*a+2]
			p[3] += ye[4*a+3]
			continue
		}
		hangAdd(&hang[^row[a]], ye[4*a], ye[4*a+1], ye[4*a+2], ye[4*a+3], dst)
	}
}

// hangValue is a hanging corner's four dofs: its masters' blocks summed
// from zero in master order at weight 1/N. The four-lane loop's gather4
// does the same operations in AVX2, so both loops round alike.
func hangValue(h *mesh.Hang, src []float64) (v0, v1, v2, v3 float64) {
	w := h.W()
	for k := 0; k < int(h.N); k++ {
		base := int(h.Slot[k]) * 4
		v0 += w * src[base]
		v1 += w * src[base+1]
		v2 += w * src[base+2]
		v3 += w * src[base+3]
	}
	return v0, v1, v2, v3
}

// hangAdd adds a hanging corner's four results into each master's block
// at weight 1/N, in master order (the transpose of hangValue), as the
// four-lane loop's scatter4 does in AVX2.
func hangAdd(h *mesh.Hang, y0, y1, y2, y3 float64, dst []float64) {
	w := h.W()
	for k := 0; k < int(h.N); k++ {
		base := int(h.Slot[k]) * 4
		dst[base] += w * y0
		dst[base+1] += w * y1
		dst[base+2] += w * y2
		dst[base+3] += w * y3
	}
}

// elementLoop runs the Q1 ye = A_e xe over every element in order,
// accumulating into dst through the constraint weights.
func (op *Operator) elementLoop(src, dst []float64) { op.elementsFrom(0, src, dst) }

// elementsFrom is elementLoop over the elements from first on.
func (op *Operator) elementsFrom(first int, src, dst []float64) {
	var xe, ye [32]float64
	for ei := first; ei < len(op.rows); ei++ {
		row := &op.rows[ei]
		gatherElem(row, op.hang, src, &xe)
		op.geos[ei].StokesApply(op.eta[ei], &xe, &ye)
		scatterElem(row, op.hang, &ye, dst)
	}
}

// elementLoop4 is elementLoop with the elements in vector lanes: four
// consecutive elements are gathered side by side (fem.Lanes4), applied in
// one fem.StokesApply4 on their four geometry pointers (four bricks of
// one level share one) and scattered one after the other, so every
// accumulation into dst keeps elementLoop's order and the result is bit
// for bit its result. The gather and scatter are generated AVX2
// (gather4, scatter4), hanging corners included. The last (number of
// elements) mod 4 run elementLoop.
func (op *Operator) elementLoop4(src, dst []float64) {
	var xe, ye fem.Lanes4
	hang := unsafe.SliceData(op.hang)
	ei := 0
	for ; ei+4 <= len(op.rows); ei += 4 {
		rows := (*[4][8]int32)(op.rows[ei : ei+4])
		gather4(rows, hang, &src[0], &xe)
		fem.StokesApply4((*[4]*fem.ElemGeom)(op.geos[ei:ei+4]), (*[4]float64)(op.eta[ei:ei+4]), &xe, &ye)
		scatter4(rows, hang, &ye, &dst[0])
	}
	op.elementsFrom(ei, src, dst)
}

// The AVX2 gather and scatter of elementLoop4 are generated by
// gen_lanes.go (lanes_amd64.s).
//go:generate go run gen_lanes.go

// rotFwd rotates the velocity blocks of the slot-space buffer at every
// framed slot from local to Cartesian components: v <- Q v. The element
// loop always runs in Cartesian components; conjugation happens entirely
// in these two slot-space passes.
func (op *Operator) rotFwd(buf []float64) {
	for k, s := range op.rotSlot {
		Q := &op.rotQ[k]
		base := int(s) * 4
		v0, v1, v2 := buf[base], buf[base+1], buf[base+2]
		buf[base] = Q[0][0]*v0 + Q[0][1]*v1 + Q[0][2]*v2
		buf[base+1] = Q[1][0]*v0 + Q[1][1]*v1 + Q[1][2]*v2
		buf[base+2] = Q[2][0]*v0 + Q[2][1]*v1 + Q[2][2]*v2
	}
}

// rotBwd rotates the velocity blocks of the slot-space buffer at every
// framed slot from Cartesian back to local components: v <- Q^T v. It is
// applied to ghost slots too: the owner holds the same frame for the same
// global node, and Q^T is linear, so rotating partial contributions
// before the scatter-add is exact.
func (op *Operator) rotBwd(buf []float64) {
	for k, s := range op.rotSlot {
		Q := &op.rotQ[k]
		base := int(s) * 4
		v0, v1, v2 := buf[base], buf[base+1], buf[base+2]
		buf[base] = Q[0][0]*v0 + Q[1][0]*v1 + Q[2][0]*v2
		buf[base+1] = Q[0][1]*v0 + Q[1][1]*v1 + Q[2][1]*v2
		buf[base+2] = Q[0][2]*v0 + Q[1][2]*v1 + Q[2][2]*v2
	}
}

// Apply computes y = A x for the Dirichlet-eliminated coupled Stokes
// operator (collective). It matches the coupled CSR oracle of package
// stokes's tests to rounding: constrained columns are read as zero and
// constrained owned rows return x unchanged (identity). At framed
// (free-slip) nodes the apply is conjugated — x and y hold local-frame
// velocity components there, and constraint elimination happens in the
// local frame before the forward rotation.
func (op *Operator) Apply(x, y *la.Vec) {
	// Gather owned + ghost nodal blocks into slot space.
	copy(op.xbuf[:op.nOwned*4], x.Data)
	op.gx.GatherBlock(4, x.Data, op.xbuf[op.nOwned*4:])
	// Eliminated columns read zero (local frame at framed slots).
	for _, idx := range op.fixedIdx {
		op.xbuf[idx] = 0
	}
	op.rotFwd(op.xbuf)
	clear(op.acc)
	op.loopFn(op.xbuf, op.acc)
	op.rotBwd(op.acc)
	copy(y.Data, op.acc[:op.nOwned*4])
	op.gx.ScatterAddBlock(4, op.acc[op.nOwned*4:], y.Data)
	// Identity rows for owned constrained dofs.
	for _, idx := range op.ownFixed {
		y.Data[idx] = x.Data[idx]
	}
}

// rhsLoop runs the Q1 right-hand-side element loop: consistent
// body-force loads minus the raw operator applied to the Dirichlet lift
// in src, accumulated into dst through the constraint weights.
func (op *Operator) rhsLoop(force [][8][3]float64) func(src, dst []float64) {
	return func(src, dst []float64) {
		var xe, ye [32]float64
		var F [8][3]float64
		for ei := range op.rows {
			row := &op.rows[ei]
			if op.zeroLift {
				// Homogeneous Dirichlet data: the lift action is exactly
				// zero, skip the gather and kernel apply.
				ye = [32]float64{}
			} else {
				gatherElem(row, op.hang, src, &xe)
				op.geos[ei].StokesApply(op.eta[ei], &xe, &ye)
			}
			// re = consistent load - lift action; pressure rows carry no load.
			if force != nil {
				op.geos[ei].Load(&force[ei], &F)
				for a := 0; a < 8; a++ {
					ye[4*a] = F[a][0] - ye[4*a]
					ye[4*a+1] = F[a][1] - ye[4*a+1]
					ye[4*a+2] = F[a][2] - ye[4*a+2]
					ye[4*a+3] = -ye[4*a+3]
				}
			} else {
				for i := range ye {
					ye[i] = -ye[i]
				}
			}
			scatterElem(row, op.hang, &ye, dst)
		}
	}
}

// RHS assembles the right-hand side matching the eliminated Q1 operator
// without forming any matrix (collective). force gives the body-force
// vector at each element corner (nil for none).
func (op *Operator) RHS(force [][8][3]float64) *la.Vec { return op.rhs(op.rhsLoop(force)) }

// rhs runs an order's right-hand-side element loop (collective):
// consistent body-force loads minus the raw operator applied to the
// Dirichlet lift, with constrained owned entries set to their boundary
// values. The loop accumulates into the slot buffer Apply uses.
func (op *Operator) rhs(loop func(src, dst []float64)) *la.Vec {
	// Dirichlet lift in slot space: boundary values at constrained dofs
	// (local-frame values at framed slots, rotated forward with the lift).
	clear(op.xbuf)
	for _, idx := range op.fixedIdx {
		op.xbuf[idx] = op.bcval[idx]
	}
	if !op.zeroLift {
		op.rotFwd(op.xbuf)
	}
	clear(op.acc)
	loop(op.xbuf, op.acc)
	// The load (and lift action) was accumulated in Cartesian components;
	// rotate framed rows into their local frames like the apply does.
	op.rotBwd(op.acc)
	b := la.NewVec(op.layout)
	copy(b.Data, op.acc[:op.nOwned*4])
	op.gx.ScatterAddBlock(4, op.acc[op.nOwned*4:], b.Data)
	for _, idx := range op.ownFixed {
		b.Data[idx] = op.bcval[idx]
	}
	return b
}
