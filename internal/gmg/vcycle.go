package gmg

import (
	"fmt"

	"rhea/internal/fem"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
)

// findLeafIn returns the index of the local leaf of m (in tree `tree`)
// that is o or an ancestor of o; it panics if none exists (hierarchy
// invariant broken).
func findLeafIn(m *mesh.Mesh, tree int32, o morton.Octant) int {
	if i := m.FindLocalElement(tree, o); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("gmg: no local coarse leaf contains %v (tree %d)", o, tree))
}

// levelOp is the matrix-free constrained scalar stiffness operator of one
// level applied to w fields at once, each with its own Dirichlet set:
// constrained columns read zero, constrained owned rows are identity —
// per field exactly the matrix fem.AssembleScalar would build, never
// assembled. Vectors are node-major (entry w*i+c is field c at node i),
// so one sweep over the level mesh's corner rows and element kernels, one
// ghost gather and one scatter-add serve all w fields.
type levelOp struct {
	lv       *level
	w        int
	fixed    []int32   // slot-space entries (w*slot+c) read as zero
	ownFixed []int32   // owned entries (w*node+c) with identity rows
	xbuf     []float64 // gathered input, w per slot
	acc      []float64 // element contributions, w per slot
}

// newLevelOp builds the level operator for len(bcds) fields, field c
// constrained by bcds[c].
func newLevelOp(lv *level, bcds []*fem.BCData) *levelOp {
	w := len(bcds)
	n := lv.mesh.NSlots()
	o := &levelOp{lv: lv, w: w, xbuf: make([]float64, w*n), acc: make([]float64, w*n)}
	for s := 0; s < n; s++ {
		for c, bcd := range bcds {
			if bcd.IsSet(int32(s)) {
				o.fixed = append(o.fixed, int32(w*s+c))
				if s < lv.mesh.NumOwned {
					o.ownFixed = append(o.ownFixed, int32(w*s+c))
				}
			}
		}
	}
	return o
}

// field returns the width-1 operator of field c, sharing this
// operator's work buffers (the eigenvalue estimate runs on one field).
func (o *levelOp) field(c int) *levelOp {
	if o.w == 1 {
		return o
	}
	f := &levelOp{lv: o.lv, w: 1, xbuf: o.xbuf[:len(o.xbuf)/o.w], acc: o.acc[:len(o.acc)/o.w]}
	for _, e := range o.fixed {
		if int(e)%o.w == c {
			f.fixed = append(f.fixed, e/int32(o.w))
		}
	}
	for _, e := range o.ownFixed {
		if int(e)%o.w == c {
			f.ownFixed = append(f.ownFixed, e/int32(o.w))
		}
	}
	return f
}

// Apply computes y = A x on vectors of w entries per owned node
// (krylov.Operator; collective: one ghost gather + scatter-add).
func (o *levelOp) Apply(x, y *la.Vec) { o.apply(x.Data, y.Data) }

func (o *levelOp) apply(x, y []float64) {
	m, w := o.lv.mesh, o.w
	n := w * m.NumOwned
	copy(o.xbuf[:n], x)
	m.GX.GatherBlock(w, x, o.xbuf[n:])
	for _, e := range o.fixed {
		o.xbuf[e] = 0
	}
	for i := range o.acc {
		o.acc[i] = 0
	}
	// The element kernel is the one piece specialised per width; the two
	// keep the same expression shapes, so a field's arithmetic does not
	// depend on how many fields ride along.
	switch w {
	case 1:
		o.lv.applyElems1(o.xbuf, o.acc)
	case 3:
		o.lv.applyElems3(o.xbuf, o.acc)
	default:
		panic(fmt.Sprintf("gmg: no element kernel for %d fields per node", w))
	}
	copy(y, o.acc[:n])
	m.GX.ScatterAddBlock(w, o.acc[n:], y)
	for _, e := range o.ownFixed {
		y[e] = x[e]
	}
}

// The element loops applyElems1 and applyRange3, which read the packed
// kernels at fixed offsets, are generated straight-line code in
// levelkernel.go; so are the AVX2 form of the width-3 loop
// (levelkernel_amd64.s), which runs every element, hanging corners
// included, and applyElems3, which picks it on AVX2 CPUs.
//go:generate go run gen_levelkernel.go

// scatterHang1 adds one element row's value s at a hanging corner's
// masters, each at weight 1/N (the generated loops' cold branch).
func scatterHang1(acc []float64, h *mesh.Hang, s float64) {
	w := h.W()
	for k := 0; k < int(h.N); k++ {
		acc[h.Slot[k]] += w * s
	}
}

// scatterHang3 is scatterHang1 for three interleaved fields.
func scatterHang3(acc []float64, h *mesh.Hang, s0, s1, s2 float64) {
	w := h.W()
	for k := 0; k < int(h.N); k++ {
		p := acc[3*int(h.Slot[k]) : 3*int(h.Slot[k])+3]
		p[0] += w * s0
		p[1] += w * s1
		p[2] += w * s2
	}
}

// VCycle is the multigrid V-cycle preconditioner for w scalar fields on
// the hierarchy's node layout, each with its own Dirichlet set: w = 1 is
// the scalar cycle Hierarchy.Precond hands out, w = 3 the velocity block
// of the Stokes preconditioner. It approximates, per field, the inverse
// of the constrained variable-viscosity stiffness operator; one
// application is one V-cycle from a zero initial guess (collective), a
// fixed linear operator that is SPD and hence safe inside MINRES/CG, and
// that exchanges only with mesh neighbours and across repartition gaps —
// it enters no collective.
//
// The fields share everything mesh-shaped — every smoother sweep,
// transfer, repartition and ghost exchange moves all w values of a node
// together, node-major (entry w*i+c is field c at node i) — and keep
// apart only what differs between them: the Dirichlet masks, the inverse
// diagonals, and the coarsest-level factors (one per field, solved in
// field order). A field's arithmetic is the same whatever w is, so a
// width-3 cycle returns bit for bit what three width-1 cycles would.
type VCycle struct {
	h   *Hierarchy
	w   int
	ops []*levelOp

	// Per level: inverse smoother diagonal (w per node, each field's
	// Dirichlet rows set to 1) and the Jacobi damping.
	dinv  [][]float64
	omega []float64

	// Coarsest level (the one rank that holds it): each field's Dirichlet
	// data, re-read by every factorization, and its Cholesky factor.
	coarseBC []*fem.BCData
	coarse   []coarseFactor

	// Per-level work buffers, w per owned node: right-hand side, iterate,
	// and residual. The residual buffer also receives the prolonged
	// coarse correction: the residual is dead from its restriction until
	// the post-smoother recomputes it, and the transfers overwrite their
	// output.
	b, x, r [][]float64
}

func newVCycle(h *Hierarchy, bcs []fem.ScalarBC) *VCycle {
	w := len(bcs)
	c := &VCycle{h: h, w: w}
	var bcds []*fem.BCData
	for _, lv := range h.levels {
		bcds = fem.GatherBC(lv.mesh, h.dom, bcs...)
		n := w * lv.mesh.NumOwned
		c.ops = append(c.ops, newLevelOp(lv, bcds))
		c.b = append(c.b, make([]float64, n))
		c.x = append(c.x, make([]float64, n))
		c.r = append(c.r, make([]float64, n))
		c.dinv = append(c.dinv, make([]float64, n))
		c.omega = append(c.omega, 0) // set by refresh from the hierarchy cache
	}
	if h.coarseHere {
		c.coarseBC = bcds // as gathered last: on the coarsest level
		c.coarse = make([]coarseFactor, w)
	}
	return c
}

// elemDiag writes element ei's contributions to its level's operator
// diagonal at unit viscosity into slots and coefs and returns their
// count: coefs[k] sums wa*wb*K[a][b] over every corner pair of the
// element whose masters both resolve to slots[k] — exactly the terms
// fem.AssembleScalarDiag would accumulate — in order of first appearance
// over the corners and their masters.
func elemDiag(m *mesh.Mesh, ei int, K *fem.SymKernel, slots *[32]int32, coefs *[32]float64) int {
	row := &m.Rows[ei]
	plain := true
	for _, s := range row {
		plain = plain && s >= 0
	}
	if plain {
		// Eight independent corners are eight distinct nodes at weight
		// exactly 1: corner a's only matching pair is (a, a).
		for a, s := range row {
			var v float64
			v += K[fem.SymIndex[a][a]]
			slots[a], coefs[a] = s, v
		}
		return 8
	}
	var cs [8]mesh.Corner
	for a := range cs {
		cs[a] = m.Corner(ei, a)
	}
	nloc := 0
	for a := 0; a < 8; a++ {
		ca := &cs[a]
		for ia := 0; ia < int(ca.N); ia++ {
			sa, wa := ca.Slot[ia], ca.W[ia]
			var v float64
			for b := 0; b < 8; b++ {
				cb := &cs[b]
				for ib := 0; ib < int(cb.N); ib++ {
					if cb.Slot[ib] == sa {
						v += wa * cb.W[ib] * K[fem.SymIndex[a][b]]
					}
				}
			}
			found := false
			for k := 0; k < nloc; k++ {
				if slots[k] == sa {
					coefs[k] += v
					found = true
					break
				}
			}
			if !found {
				slots[nloc], coefs[nloc] = sa, v
				nloc++
			}
		}
	}
	return nloc
}

// Apply computes y = M^-1 x on vectors holding the w fields node-major
// (for w = 1, plain node-layout vectors): krylov.Operator (collective).
func (c *VCycle) Apply(x, y *la.Vec) { c.ApplyStrided(x.Data, y.Data, c.w) }

// ApplyStrided computes y = M^-1 x for fields stored with the given
// stride: field k of owned node i is x[stride*i+k] (stride >= w; other
// entries of x and y are left alone). The Stokes preconditioner passes
// its 4-per-node solution vectors straight through with stride 4. One
// V-cycle on the homogeneous-Dirichlet error equation, with identity
// pass-through at constrained dofs to match the assembled
// preconditioner's identity rows (collective). x and y must not overlap.
func (c *VCycle) ApplyStrided(x, y []float64, stride int) {
	w, b := c.w, c.b[0]
	n := len(b) / w
	for i := 0; i < n; i++ {
		copy(b[w*i:w*i+w], x[stride*i:stride*i+w])
	}
	fixed := c.ops[0].ownFixed
	for _, e := range fixed {
		b[e] = 0
	}
	c.cycle(0)
	out := c.x[0]
	for i := 0; i < n; i++ {
		copy(y[stride*i:stride*i+w], out[w*i:w*i+w])
	}
	for _, e := range fixed {
		at := stride*(int(e)/w) + int(e)%w
		y[at] = x[at]
	}
}

func (c *VCycle) cycle(l int) {
	h, w := c.h, c.w
	last := len(h.levels) - 1
	if l == last && h.coarseHere {
		c.coarseSolve(l)
		return
	}
	b, x, r := c.b[l], c.x[l], c.r[l]
	t := r // the prolonged correction, see VCycle
	omega, dinv := c.omega[l], c.dinv[l]
	smoothed := !h.levels[l].repart
	if !smoothed {
		// Shadow of a repartition gap: the level above already smoothed
		// these octants, so pass the residual straight through.
		for i := range x {
			x[i] = 0
		}
		copy(r, b)
	} else {
		// Pre-smooth from the zero guess: x = omega D^-1 b, no apply.
		for i := range x {
			x[i] = dinv[i] * b[i] * omega
		}
		// Residual, carried to the next level down (Dirichlet rows
		// masked: the coarse error is zero at constrained nodes).
		c.ops[l].apply(x, r)
		for i := range r {
			r[i] = -r[i] + b[i]
		}
	}
	switch {
	case l == last:
		// This rank's stack ends above a repartition gap it is not in:
		// hand the residual to the subset, idle while it works the
		// coarser levels, collect the correction.
		h.partial.NodeForward(w, r, nil)
		h.partial.NodeBackward(w, nil, t)
	case h.rps[l] != nil:
		// Repartition gap: restriction is the identity permutation onto
		// the subset's partition, prolongation its transpose.
		rp := h.rps[l]
		rp.NodeForward(w, r, c.b[l+1])
		for _, e := range c.ops[l+1].ownFixed {
			c.b[l+1][e] = 0
		}
		c.cycle(l + 1)
		rp.NodeBackward(w, c.x[l+1], t)
	default:
		h.trans[l].Restrict(w, r, c.b[l+1])
		for _, e := range c.ops[l+1].ownFixed {
			c.b[l+1][e] = 0
		}
		c.cycle(l + 1)
		// Prolonged correction (masked at constrained fine dofs).
		h.trans[l].Prolong(w, c.x[l+1], t)
	}
	for _, e := range c.ops[l].ownFixed {
		t[e] = 0
	}
	for i := range x {
		x[i] += t[i]
	}
	if smoothed {
		// Post-smooth: x += omega D^-1 (b - A x), the pre-smoother's
		// adjoint, which keeps the cycle symmetric.
		c.ops[l].apply(x, r)
		for i := range x {
			x[i] += dinv[i] * (-r[i] + b[i]) * omega
		}
	}
}

// coarseSolve solves the coarsest level exactly, field by field: one
// forward and one back substitution with each field's Cholesky factor,
// on the one rank that holds the level (local).
func (c *VCycle) coarseSolve(l int) {
	for k, f := range c.coarse {
		f.solve(c.b[l], c.x[l], c.w, k)
	}
}
