// Package matfree applies the coupled variable-viscosity Stokes operator
// matrix-free: instead of assembling the global saddle-point CSR, each
// Krylov apply runs a fused loop over the local elements, evaluating the
// element operator's action on gathered corner values and scatter-adding
// the results through the hanging-node constraint weights. On mapped
// (forest, shell) meshes the action is evaluated at the quadrature points
// from the per-element geometry the mesh already caches
// (fem.ElemGeom.StokesApply): nothing is tabulated or stored per element,
// and an apply streams 648 B of geometry per element (an inverse Jacobian
// and a weight per quadrature point, and the volume). On axis-aligned
// meshes every element of an octree level shares one
// cache-resident tabulated kernel (fem.StokesKernels), so no operator
// bytes are streamed per element at all. This is the paper-era route to
// speed and scale for memory-bound Stokes solves: the operator is never
// stored, the per-apply data volume drops from CSR values + indices to
// nodal vectors plus geometry, and the element loop parallelizes over
// in-rank cores on top of the rank-level (simulated MPI) parallelism.
//
// Nodes are addressed by the mesh's own slots (mesh.Mesh.GX) and
// off-rank coupling uses that one la.GhostExchange plan in both
// directions, at width 4: gather remote master-node blocks before the loop, scatter-add remote
// row contributions after it. Dirichlet conditions are eliminated exactly
// as in the assembled path — constrained columns read zero, constrained
// owned rows are identity — so the apply matches stokes.Assemble's CSR to
// rounding.
package matfree

import (
	"runtime"
	"sync"

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

// Options tunes the matrix-free apply.
type Options struct {
	// Workers is the number of goroutines the element loop uses within
	// this rank. 0 picks NumCPU()/worldSize (at least 1), so in-rank
	// cores left idle by the rank decomposition contribute to throughput.
	Workers int
}

// Operator is the matrix-free coupled Stokes operator on one rank. It
// implements krylov.Operator over the interleaved 4N dof layout used by
// stokes.Solver.
type Operator struct {
	m      *mesh.Mesh
	layout *la.Layout // 4*NumOwned dof layout
	eta    []float64  // per-element viscosity
	// Element operator: on mapped meshes the shared per-element
	// quadrature geometry (fem.ElemGeoms), applied at the quadrature
	// points; on axis-aligned meshes (geos nil) one tabulated kernel per
	// octree level, aliased per element.
	geos    []*fem.ElemGeom
	kern    []*fem.StokesKernels
	corners [][8]mesh.Corner
	gx      *la.GhostExchange
	nOwned  int
	nSlots  int

	fixedIdx []int32   // slot-space dof indices read as zero (constrained columns)
	bcval    []float64 // len nSlots*4: Dirichlet values at constrained dofs
	ownFixed []int32   // owned dof indices with identity rows

	// Rotated boundary frames (free-slip): slots whose velocity block is
	// conjugated into a local (normal, tangent, tangent) basis, and the
	// basis matrices (columns = local directions in Cartesian components).
	rotSlot []int32
	rotQ    [][3][3]float64

	pool   *pool
	xbuf   []float64                               // nSlots*4 gathered input
	loopFn func(w, lo, hi int, src, dst []float64) // bound elementLoop (avoids a per-Apply method-value allocation)
}

// pool is the in-rank worker pool matrix-free element loops run on:
// static Morton-contiguous element chunks per worker, per-worker
// accumulators, and a deterministic two-phase reduction. The Q1 coupled
// operator, the Q2 (27-node) operator and their right-hand-side loops
// all share it; the loop callback receives its worker index so
// higher-order kernels can use per-worker scratch without allocating.
type pool struct {
	workers int
	chunks  [][2]int    // element ranges per worker
	acc     [][]float64 // per-worker accumulators, nfloats each
}

// newPool sizes the worker pool: explicit count, or NumCPU()/worldSize
// (at least 1) so in-rank cores left idle by the rank decomposition
// contribute, clamped to the element count. nfloats is the slot-space
// accumulator length.
func newPool(workers, worldSize, ne, nfloats int) *pool {
	p := &pool{workers: workers}
	if p.workers <= 0 {
		p.workers = runtime.NumCPU() / worldSize
	}
	if p.workers > ne && ne > 0 {
		p.workers = ne
	}
	if p.workers < 1 {
		p.workers = 1
	}
	// Static Morton-contiguous chunks: deterministic accumulation order
	// regardless of goroutine scheduling.
	for w := 0; w < p.workers; w++ {
		p.chunks = append(p.chunks, [2]int{ne * w / p.workers, ne * (w + 1) / p.workers})
	}
	p.acc = make([][]float64, p.workers)
	for w := range p.acc {
		p.acc[w] = make([]float64, nfloats)
	}
	return p
}

// run executes loop over all chunks and reduces the per-worker
// accumulators into acc[0], returning it. The single-worker path runs
// inline (no goroutines, no allocation); the reduction sums buffers in
// fixed worker order, so results are bitwise independent of scheduling.
func (p *pool) run(src []float64, loop func(w, lo, hi int, src, dst []float64)) []float64 {
	if p.workers == 1 {
		acc := p.acc[0]
		for i := range acc {
			acc[i] = 0
		}
		loop(0, p.chunks[0][0], p.chunks[0][1], src, acc)
		return acc
	}
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := p.acc[w]
			for i := range acc {
				acc[i] = 0
			}
			loop(w, p.chunks[w][0], p.chunks[w][1], src, acc)
		}(w)
	}
	wg.Wait()
	// Parallel reduction: each worker sums a contiguous slot range across
	// all buffers into acc[0], in fixed worker order (deterministic).
	n := len(p.acc[0])
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := n * w / p.workers
			hi := n * (w + 1) / p.workers
			dst := p.acc[0][lo:hi]
			for v := 1; v < p.workers; v++ {
				srcv := p.acc[v][lo:hi]
				for i := range dst {
					dst[i] += srcv[i]
				}
			}
		}(w)
	}
	wg.Wait()
	return p.acc[0]
}

// New builds the operator for the extracted mesh, per-element viscosity
// and constraint tables (local). layout must be the 4N dof layout of the
// Stokes system. Everything built here — constraint index lists, worker
// chunks, per-level brick kernels — depends only on the mesh and boundary
// conditions; the node numbering and ghost plan are the mesh's own.
// etaElem may be nil and supplied later via SetViscosity, which is how
// the persistent solver reuses one Operator across viscosity updates.
func New(m *mesh.Mesh, dom fem.Domain, layout *la.Layout, etaElem []float64, cons Constraints, opts Options) *Operator {
	op := &Operator{m: m, layout: layout, eta: etaElem, nOwned: m.NumOwned,
		corners: m.Corners, gx: m.GX, nSlots: m.NSlots(), bcval: cons.Val}

	// Mapped meshes read the geometry every layer shares; axis-aligned
	// ones the per-level kernels the assembled path scales too.
	if op.geos = fem.ElemGeoms(m); op.geos == nil {
		op.kern = fem.StokesKernelsFor(m, dom)
	}

	for s, Q := range cons.Frames {
		if Q != nil {
			op.rotSlot = append(op.rotSlot, int32(s))
			op.rotQ = append(op.rotQ, *Q)
		}
	}
	for idx, is := range cons.Fixed {
		if is {
			op.fixedIdx = append(op.fixedIdx, int32(idx))
			if idx < 4*m.NumOwned {
				op.ownFixed = append(op.ownFixed, int32(idx))
			}
		}
	}

	op.pool = newPool(opts.Workers, m.Rank.Size(), len(m.Leaves), op.nSlots*4)
	op.xbuf = make([]float64, op.nSlots*4)
	op.loopFn = op.elementLoop
	return op
}

// SetViscosity replaces the per-element viscosity the element operators
// are evaluated with (local, free). The mesh-dependent state — the constraint
// index lists — is untouched, so this is the entire
// viscosity-dependent half of the operator's setup.
func (op *Operator) SetViscosity(etaElem []float64) { op.eta = etaElem }

// applyElem computes ye = A_e xe for local element ei.
func (op *Operator) applyElem(ei int, xe, ye *[32]float64) {
	if op.geos != nil {
		op.geos[ei].StokesApply(op.eta[ei], xe, ye)
	} else {
		op.kern[ei].Apply(op.eta[ei], xe, ye)
	}
}

// gatherElem interpolates the 32 corner dofs of an element from the
// slot-space buffer through the constraint weights.
func gatherElem(cs *[8]mesh.Corner, src []float64, xe *[32]float64) {
	for a := 0; a < 8; a++ {
		cr := &cs[a]
		var v0, v1, v2, v3 float64
		for k := 0; k < int(cr.N); k++ {
			base := int(cr.Slot[k]) * 4
			w := cr.W[k]
			v0 += w * src[base]
			v1 += w * src[base+1]
			v2 += w * src[base+2]
			v3 += w * src[base+3]
		}
		xe[4*a], xe[4*a+1], xe[4*a+2], xe[4*a+3] = v0, v1, v2, v3
	}
}

// scatterElem adds the 32 element results into the slot-space
// accumulator through the constraint weights (the transpose of
// gatherElem).
func scatterElem(cs *[8]mesh.Corner, ye *[32]float64, dst []float64) {
	for a := 0; a < 8; a++ {
		cr := &cs[a]
		for k := 0; k < int(cr.N); k++ {
			base := int(cr.Slot[k]) * 4
			w := cr.W[k]
			dst[base] += w * ye[4*a]
			dst[base+1] += w * ye[4*a+1]
			dst[base+2] += w * ye[4*a+2]
			dst[base+3] += w * ye[4*a+3]
		}
	}
}

// elementLoop runs ye = A_e xe over elements [lo,hi), accumulating into
// dst through the constraint weights.
func (op *Operator) elementLoop(_, lo, hi int, src, dst []float64) {
	var xe, ye [32]float64
	for ei := lo; ei < hi; ei++ {
		cs := &op.corners[ei]
		gatherElem(cs, src, &xe)
		op.applyElem(ei, &xe, &ye)
		scatterElem(cs, &ye, dst)
	}
}

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
// operator (collective). It matches the assembled CSR of stokes.Assemble
// to rounding: constrained columns are read as zero and constrained owned
// rows return x unchanged (identity). At framed (free-slip) nodes the
// apply is conjugated — x and y hold local-frame velocity components
// there, and constraint elimination happens in the local frame before the
// forward rotation.
func (op *Operator) Apply(x, y *la.Vec) {
	// Gather owned + ghost nodal blocks into slot space.
	copy(op.xbuf[:op.nOwned*4], x.Data)
	op.gx.GatherBlock(4, x.Data, op.xbuf[op.nOwned*4:])
	// Eliminated columns read zero (local frame at framed slots).
	for _, idx := range op.fixedIdx {
		op.xbuf[idx] = 0
	}
	op.rotFwd(op.xbuf)
	acc := op.pool.run(op.xbuf, op.loopFn)
	op.rotBwd(acc)
	copy(y.Data, acc[:op.nOwned*4])
	op.gx.ScatterAddBlock(4, acc[op.nOwned*4:], y.Data)
	// Identity rows for owned constrained dofs.
	for _, idx := range op.ownFixed {
		y.Data[idx] = x.Data[idx]
	}
}

// elemLoad computes the consistent load F = M_e f of the corner body
// force f on local element ei.
func (op *Operator) elemLoad(ei int, f, F *[8][3]float64) {
	if op.geos != nil {
		op.geos[ei].Load(f, F)
		return
	}
	M8 := &op.kern[ei].M8
	for a := 0; a < 8; a++ {
		var f0, f1, f2 float64
		for b := 0; b < 8; b++ {
			m := M8[a][b]
			f0 += m * f[b][0]
			f1 += m * f[b][1]
			f2 += m * f[b][2]
		}
		F[a] = [3]float64{f0, f1, f2}
	}
}

// rhsLoop runs the right-hand-side element loop over elements [lo,hi):
// consistent body-force loads minus the raw operator applied to the
// Dirichlet lift in src, accumulated into dst through the constraint
// weights.
func (op *Operator) rhsLoop(force [][8][3]float64, zeroLift bool) func(w, lo, hi int, src, dst []float64) {
	return func(_, lo, hi int, src, dst []float64) {
		var xe, ye [32]float64
		var F [8][3]float64
		for ei := lo; ei < hi; ei++ {
			cs := &op.corners[ei]
			if zeroLift {
				// Homogeneous Dirichlet data: the lift action is exactly
				// zero, skip the gather and kernel apply.
				ye = [32]float64{}
			} else {
				gatherElem(cs, src, &xe)
				op.applyElem(ei, &xe, &ye)
			}
			// re = consistent load - lift action; pressure rows carry no load.
			if force != nil {
				op.elemLoad(ei, &force[ei], &F)
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
			scatterElem(cs, &ye, dst)
		}
	}
}

// RHS assembles the right-hand side matching the eliminated operator
// without forming any matrix (collective): consistent body-force loads
// minus the raw operator applied to the Dirichlet lift, with constrained
// owned entries set to their boundary values. force gives the body-force
// vector at each element corner (nil for none). The element loop runs on
// the same worker pool (and with the same deterministic reduction) as
// Apply.
func (op *Operator) RHS(force [][8][3]float64) *la.Vec {
	// Dirichlet lift in slot space: boundary values at constrained dofs
	// (local-frame values at framed slots, rotated forward with the lift).
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
	if !zeroLift {
		op.rotFwd(op.xbuf)
	}
	acc := op.pool.run(op.xbuf, op.rhsLoop(force, zeroLift))
	// The load (and lift action) was accumulated in Cartesian components;
	// rotate framed rows into their local frames like the apply does.
	op.rotBwd(acc)
	b := la.NewVec(op.layout)
	copy(b.Data, acc[:op.nOwned*4])
	op.gx.ScatterAddBlock(4, acc[op.nOwned*4:], b.Data)
	for _, idx := range op.ownFixed {
		b.Data[idx] = op.bcval[idx]
	}
	return b
}
