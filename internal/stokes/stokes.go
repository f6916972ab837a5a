// Package stokes implements the paper's variable-viscosity Stokes solver
// (§III): the stabilized equal-order Q1–Q1 discretization of
//
//	-div( eta (grad u + grad u^T) ) + grad p = f
//	 div u                                   = 0  (stabilized)
//
// assembled as one symmetric saddle-point matrix, solved by preconditioned
// MINRES with the block-diagonal preconditioner
//
//	P = diag( A~ , S~ )
//
// where A~ is a variable-viscosity discrete vector Laplacian approximated
// by one AMG V-cycle per component, and S~ is the inverse-viscosity-
// weighted lumped pressure mass matrix, spectrally equivalent to the
// Schur complement.
//
// Degrees of freedom are interleaved per node: dof(g,c) = 4 g + c with
// c = 0,1,2 the velocity components and c = 3 the pressure. Because node
// ids are contiguous per rank, so are dof blocks.
//
// Solver setup is split into two halves so a time loop can amortize the
// expensive one. Setup builds everything that depends only on the mesh
// and boundary conditions: the dof layout, the slot-indexed Dirichlet
// and free-slip frame tables (one ghost exchange over the mesh's own
// plan), the matrix-free operator's constraint lists, and the GMG level
// hierarchy with its transfer stencils. Update refreshes everything that
// depends on the viscosity and body force: operator kernels or CSR
// values, the right-hand side, multigrid smoother diagonals, the coarse
// AMG, and the Schur diagonal. A convection loop calls Setup once per
// mesh adaptation and Update once per Picard iteration; Assemble remains
// the one-shot composition of the two.
package stokes

import (
	"fmt"
	"math"

	"rhea/internal/amg"
	"rhea/internal/fem"
	"rhea/internal/gmg"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/matfree"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// VelBC prescribes velocity Dirichlet data per component: fixed[i]
// constrains component i to vals[i] at the given physical position.
type VelBC func(x [3]float64) (fixed [3]bool, vals [3]float64)

// FreeSlip returns the free-slip (no-penetration) condition on the
// boundary of the box: the normal velocity component vanishes on each
// face, tangential components are unconstrained.
func FreeSlip(box [3]float64) VelBC {
	return func(x [3]float64) (fixed [3]bool, vals [3]float64) {
		for i := 0; i < 3; i++ {
			if x[i] == 0 || x[i] == box[i] {
				fixed[i] = true
			}
		}
		return
	}
}

// RadialNoSlip fixes all velocity components to zero on the inner and
// outer boundaries of a spherical shell (radius rin or rout, detected
// with a relative tolerance — shell geometry places boundary nodes on
// the exact radii up to rounding). True free-slip on the shell uses
// rotated per-node boundary frames instead: see Options.Slip and
// ShellSlipNormals.
func RadialNoSlip(rin, rout float64) VelBC {
	tol := 1e-9 * rout
	return func(x [3]float64) (fixed [3]bool, vals [3]float64) {
		r := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
		if math.Abs(r-rin) < tol || math.Abs(r-rout) < tol {
			return [3]bool{true, true, true}, vals
		}
		return
	}
}

// RadialNoSlipInner fixes all velocity components to zero on the inner
// shell boundary only — the no-slip half of the community "FS" setup
// (free-slip top, no-slip base) whose outer boundary is handled by
// Options.Slip.
func RadialNoSlipInner(rin, rout float64) VelBC {
	tol := 1e-9 * rout
	return func(x [3]float64) (fixed [3]bool, vals [3]float64) {
		r := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
		if math.Abs(r-rin) < tol {
			return [3]bool{true, true, true}, vals
		}
		return
	}
}

// SlipNormal marks free-slip boundary nodes: it returns the outward unit
// normal (up to normalization) at positions on a free-slip boundary and
// ok = false elsewhere. At a slip node the solver builds an orthonormal
// (normal, tangent, tangent) frame, conjugates the velocity operator into
// it and constrains only the normal component — true free-slip on curved
// boundaries, where the normal is not axis-aligned. Slip takes precedence
// over VelBC where both apply to a node. The detection must be purely
// position-based: multigrid levels and rank subsets re-evaluate it on
// their own meshes and rely on getting identical answers.
type SlipNormal func(x [3]float64) (n [3]float64, ok bool)

// ShellSlipNormals returns the free-slip marker for a spherical shell:
// the radial direction at nodes on the inner and/or outer boundary radius
// (same relative tolerance as RadialNoSlip, so the two compose into
// mixed free-slip/no-slip shells without overlap surprises).
func ShellSlipNormals(rin, rout float64, inner, outer bool) SlipNormal {
	tol := 1e-9 * rout
	return func(x [3]float64) ([3]float64, bool) {
		r := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
		if (outer && math.Abs(r-rout) < tol) || (inner && math.Abs(r-rin) < tol) {
			return x, true
		}
		return [3]float64{}, false
	}
}

// frameFor builds the deterministic orthonormal boundary frame for unit
// normal direction n (not necessarily normalized on input): columns of Q
// are (n, t1, t2) with t1 the normalized projection of the coordinate
// axis least aligned with n, and t2 = n x t1. Every rank and multigrid
// level computes the identical frame from the identical position, which
// is what keeps the conjugated operators consistent across the stack.
func frameFor(n [3]float64) [3][3]float64 {
	nn := math.Sqrt(n[0]*n[0] + n[1]*n[1] + n[2]*n[2])
	for i := 0; i < 3; i++ {
		n[i] /= nn
	}
	// Pick the axis least aligned with n (deterministic tie-break: lowest
	// index wins), project it off n and normalize.
	a := 0
	if math.Abs(n[1]) < math.Abs(n[a]) {
		a = 1
	}
	if math.Abs(n[2]) < math.Abs(n[a]) {
		a = 2
	}
	var t1 [3]float64
	t1[a] = 1
	for i := 0; i < 3; i++ {
		t1[i] -= n[a] * n[i]
	}
	tn := math.Sqrt(t1[0]*t1[0] + t1[1]*t1[1] + t1[2]*t1[2])
	for i := 0; i < 3; i++ {
		t1[i] /= tn
	}
	t2 := [3]float64{
		n[1]*t1[2] - n[2]*t1[1],
		n[2]*t1[0] - n[0]*t1[2],
		n[0]*t1[1] - n[1]*t1[0],
	}
	var Q [3][3]float64
	for i := 0; i < 3; i++ {
		Q[i][0], Q[i][1], Q[i][2] = n[i], t1[i], t2[i]
	}
	return Q
}

// Solver is a Stokes problem plus its preconditioner, split into cached
// mesh-dependent state (built once by Setup) and viscosity-dependent
// state (refreshed by Update). The coupled operator is either an
// assembled distributed CSR (A) or a matrix-free per-element apply (MF),
// selected by Options.MatrixFree; Op is whichever one Solve iterates
// with. A Solver is only usable after at least one Update.
type Solver struct {
	M      *mesh.Mesh
	Dom    fem.Domain
	Layout *la.Layout        // 4N dof layout
	A      *la.Mat           // coupled saddle-point operator (nil in matrix-free mode)
	MF     *matfree.Operator // matrix-free apply, Q1 or Q2 (nil in assembled mode)
	Op     krylov.Operator   // the operator Solve uses
	B      *la.Vec           // right-hand side

	// GMGH is the geometric multigrid hierarchy backing the velocity
	// preconditioner when Options.Precond == PrecondGMG (nil otherwise).
	GMGH *gmg.Hierarchy

	// cached mesh/BC-dependent state
	opts Options
	bc   VelBC
	// cons holds the Dirichlet flags and values of every dof this rank
	// references and the free-slip frames, by node slot. At a slot with a
	// frame the component index is LOCAL: 0 is the boundary normal
	// (constrained to zero), 1 and 2 the free tangentials.
	cons    matfree.Constraints
	compBC  [3]fem.ScalarBC // per-velocity-component scalar view of bc
	compBCD []*fem.BCData   // gathered per-component Dirichlet data (AMG path)
	nodeL   *la.Layout
	// unit scalar stiffness kernels as packed upper triangles
	// (scalKern[scalIdx[ei]] is element ei's; one brick per octree level
	// on axis-aligned meshes), expanded and scaled by the viscosity on the
	// AMG-preconditioner refresh path instead of re-running quadrature.
	scalKern []fem.SymKernel
	scalIdx  []int32
	// stokesKern holds the per-element unit-viscosity coupled kernels the
	// assembled path scales on every Update (fem.StokesKernelsFor: one per
	// element on mapped meshes, one per octree level on axis-aligned
	// ones; the matrix-free operator evaluates the same element operator
	// at the quadrature points on every mesh and stores none).
	stokesKern []*fem.StokesKernels

	// Velocity-block preconditioner: on the GMG path one blocked V-cycle
	// carrying all three components (velGMG; under the Q2 p-level for
	// Order 2); on the AMG path one scalar operator per component (velPC),
	// fed through the xc/yc work vectors.
	velGMG   *gmg.VCycle
	velPC    [3]krylov.Operator
	schurInv *la.Vec // nodal inverse of S~ diagonal
	nOwned   int

	// Free-slip (rotated boundary frame) state, set when Options.Slip
	// marks any boundary node: cons.Frames then holds the orthonormal
	// (normal, tangent, tangent) basis of every referenced slip node and
	// slipOwned the owned local node indices with one. slipDinv carries the inverse
	// viscosity-scaled scalar stiffness diagonal at those nodes — the
	// boundary Jacobi rows the velocity preconditioner uses where the
	// scalar V-cycles see Dirichlet nodes. null holds the orthonormalized
	// rigid-rotation modes projected out of MINRES when no Cartesian
	// Dirichlet condition pins the rotations (free-slip on every
	// boundary); empty otherwise.
	hasSlip   bool
	slipOwned []int32
	slipDinv  *la.Vec
	null      []*la.Vec

	// work vectors for the per-component preconditioners (node layout)
	xc, yc *la.Vec

	// Order-2 (Taylor-Hood) state (see q2.go): the Q2 node layer the
	// dofs live on and the p-coarsened velocity preconditioner; q2 != nil
	// selects the Q2 branches.
	q2 *mesh.Q2Mesh
	pl *pCoarse
}

// PrecondKind selects the velocity-block preconditioner family.
type PrecondKind int

const (
	// PrecondAMG (default) assembles one scalar Poisson CSR per velocity
	// component and runs an algebraic multigrid V-cycle (package amg).
	PrecondAMG PrecondKind = iota
	// PrecondGMG runs a matrix-free geometric multigrid V-cycle on the
	// octree level hierarchy (package gmg): no fine-level velocity CSR is
	// assembled — only the coarsest level of the hierarchy is.
	PrecondGMG
)

// Options tunes assembly and preconditioning.
type Options struct {
	AMG amg.Options
	// Precond selects the velocity-block preconditioner: assembled AMG
	// (default) or the matrix-free geometric multigrid of package gmg.
	Precond PrecondKind
	// GMG tunes the geometric hierarchy when Precond == PrecondGMG.
	GMG gmg.Options
	// LocalAMG selects per-rank block-Jacobi AMG hierarchies for the
	// velocity blocks instead of the default globally consistent
	// (redundant) hierarchy. Cheaper setup, but Krylov iteration counts
	// then grow with the rank count — see the ablation benchmarks.
	LocalAMG bool
	// MatrixFree skips assembling the coupled saddle-point CSR and
	// applies the operator by fused per-element loops instead (package
	// matfree). The preconditioner is unchanged. The apply agrees with
	// the assembled operator to rounding.
	MatrixFree bool
	// MatFree is not read: the matrix-free element loop runs on the
	// rank's goroutine (rhea.Config.Validate refuses MatFree.Workers > 1).
	MatFree matfree.Options
	// Slip marks free-slip boundary nodes and their outward normals. At
	// each marked node the velocity operator (assembled or matrix-free)
	// is conjugated into a rotated (normal, tangent, tangent) frame and
	// only the normal component is constrained; the solution vector holds
	// local-frame components there (SplitSolution rotates back). When the
	// slip set leaves the 3 rigid rotations unconstrained (no Cartesian
	// Dirichlet velocity anywhere), Solve projects them out of the Krylov
	// space. Not supported with Order == 2.
	Slip SlipNormal
	// Order selects the velocity element order: 0 or 1 for the stabilized
	// equal-order Q1-Q1 pair (default), 2 for Q2-Q1 Taylor-Hood with the
	// sum-factorized matrix-free apply and the p-coarsened GMG velocity
	// preconditioner. Order 2 requires MatrixFree, Precond == PrecondGMG,
	// and a mesh with the Q2 node layer attached (mesh.ExtractQ2).
	Order int
}

// Setup builds the mesh- and BC-dependent half of the Stokes solver
// (collective): the 4N dof layout, the velocity Dirichlet and free-slip
// tables of every referenced node (one exchange), the matrix-free
// operator's constraint lists (when Options.MatrixFree), and the GMG level hierarchy with transfer stencils
// and per-component V-cycle structure (when Options.Precond ==
// PrecondGMG). Nothing viscosity-dependent is computed; call Update with
// the per-element viscosity and body force before Solve. The returned
// Solver is cached by the convection time loop and survives unchanged
// until the mesh adapts.
func Setup(m *mesh.Mesh, dom fem.Domain, bc VelBC, opts Options) *Solver {
	if opts.Order < 0 || opts.Order > 2 {
		panic(fmt.Sprintf("stokes: unsupported element order %d (want 1 or 2)", opts.Order))
	}
	if opts.Order == 2 && opts.Slip != nil {
		panic("stokes: free-slip rotated frames are not supported with Order == 2")
	}
	slip := opts.Slip
	s := &Solver{M: m, Dom: dom, bc: bc, opts: opts, nOwned: m.NumOwned}
	s.nodeL = m.Layout()
	for c := 0; c < 3; c++ {
		c := c
		s.compBC[c] = func(x [3]float64) (float64, bool) {
			// Slip nodes look fully Dirichlet to the scalar component
			// preconditioners: a frame-rotated identity block is still the
			// identity, so treating all three components as fixed is the
			// one choice that is invariant under the per-node rotation —
			// and, being position-based, automatically consistent on every
			// multigrid level and rank subset. The tangential rows are
			// preconditioned by the boundary Jacobi overwrite in Precond.
			if slip != nil {
				if _, ok := slip(x); ok {
					return 0, true
				}
			}
			fixed, vals := bc(x)
			if fixed[c] {
				return vals[c], true
			}
			return 0, false
		}
	}

	// The nodes the dofs live on: the mesh's own, or for Order 2 the Q2
	// layer's. Either way they are addressed by slot, with one ghost plan.
	n, gx := m.NumOwned, m.GX
	coord := func(i int) [3]float64 { return fem.NodeCoord(m, dom, i) }
	pPinned := func(i int) bool { return m.Offset+int64(i) == 0 }
	if opts.Order == 2 {
		q2 := m.Q2
		if !opts.MatrixFree || opts.Precond != PrecondGMG {
			panic("stokes: Order 2 requires MatrixFree and PrecondGMG (no assembled or AMG path)")
		}
		if q2 == nil {
			panic("stokes: Order 2 requires the Q2 node layer — call mesh.ExtractQ2 and set Mesh.Q2")
		}
		s.q2, n, gx = q2, q2.NumOwned, q2.GX
		coord = func(i int) [3]float64 { return dom.CoordHalf(q2.OwnedPos2[i]) }
		// The pressure pin stays at gid 0 — the domain origin is a vertex
		// in both numberings — and non-vertex nodes carry no pressure.
		pPinned = func(i int) bool { return q2.Offset+int64(i) == 0 || !q2.IsVertex(q2.OwnedPos2[i]) }
	}
	s.Layout = la.NewLayout(m.Rank, 4*n)
	nFixedCart := s.constrain(n, gx, coord, pPinned)

	switch {
	case s.q2 != nil:
		s.MF = matfree.NewQ2(s.q2, dom, s.Layout, nil, s.cons)
		s.Op = s.MF
	case opts.MatrixFree:
		// Constraint index lists and kernels are mesh-dependent; the
		// viscosity is attached by Update.
		s.MF = matfree.New(m, dom, s.Layout, nil, s.cons)
		s.Op = s.MF
	default:
		// Assembled path: the unit kernels, scaled by the viscosity on
		// every Update.
		s.stokesKern = fem.StokesKernelsFor(m, dom)
	}

	if opts.Precond == PrecondGMG {
		// Level meshes, transfer stencils and the blocked V-cycle's
		// structure; smoother diagonals and the coarsest-level factors
		// wait for the first Update/Rebuild.
		s.GMGH = gmg.NewHierarchy(m, dom, opts.GMG)
		if s.GMGH.Degenerate() {
			// The caller asked for GMG; a hierarchy whose coarsest level
			// is still large would quietly cost per-iteration work the
			// method promises to avoid. Fail loudly instead.
			le := s.GMGH.LevelElems()
			panic(fmt.Sprintf(
				"stokes: GMG hierarchy is degenerate — coarsening stopped at %d global elements (target <= %d) after %d levels",
				le[len(le)-1], gmg.CoarseElems, s.GMGH.NumLevels()))
		}
		s.velGMG = s.GMGH.PrecondBlock(s.compBC[:])
	} else {
		// Unit stiffness kernels and gathered per-component Dirichlet
		// data for the Poisson CSRs the AMG refresh re-assembles each
		// Update; both are mesh-dependent.
		s.scalKern, s.scalIdx = fem.UnitStiffnessKernels(m, dom)
		s.compBCD = fem.GatherBC(m, dom, s.compBC[:]...)
		s.xc, s.yc = la.NewVec(s.nodeL), la.NewVec(s.nodeL)
	}
	if s.q2 != nil {
		s.pl = newPCoarse(s)
	}

	if s.hasSlip {
		s.slipDinv = la.NewVec(s.nodeL)
		// Rigid rotations are tangent to every sphere, so radial-only
		// constraints never pin them: if no Cartesian Dirichlet velocity
		// exists anywhere (free-slip on all boundaries), the 3 rotations
		// span the operator's null space and must be projected out.
		if m.Rank.Allreduce(float64(nFixedCart), sim.OpSum) == 0 {
			s.buildNullSpace()
		}
	}

	s.finishSetup()
	return s
}

// constrain fills the slot-indexed constraint table s.cons for the n
// owned nodes and gx's ghosts (collective: one exchange). It evaluates
// the velocity BC flags and values, and the free-slip mask and normals
// (slip takes precedence over bc at a node), at the owned nodes (coord),
// together with the pressure constraint (pPinned), and fetches the
// ghosts' in one exchange, each field in slot space: the component bit
// mask and the three values, then (with slip) the slip mask and the three
// normal components. It returns the number of owned velocity dofs pinned
// in Cartesian components.
func (s *Solver) constrain(n int, gx *la.GhostExchange, coord func(int) [3]float64, pPinned func(int) bool) int {
	slip := s.opts.Slip
	ns := n + gx.NumGhosts()
	fields := make([][]float64, 4)
	if slip != nil {
		fields = make([][]float64, 8)
	}
	owned, ghost := make([][]float64, len(fields)), make([][]float64, len(fields))
	for f := range fields {
		fields[f] = make([]float64, ns)
		owned[f], ghost[f] = fields[f][:n], fields[f][n:]
	}
	mask, val := fields[0], fields[1:4]
	var smask []float64
	var normal [][]float64
	if slip != nil {
		smask, normal = fields[4], fields[5:8]
	}
	const pBit = 1 << 3 // pressure constrained
	nFixedCart := 0
	for i := 0; i < n; i++ {
		x := coord(i)
		bits := 0.0
		if pPinned(i) {
			bits = pBit
		}
		if slip != nil {
			if nrm, ok := slip(x); ok {
				smask[i] = 1
				for c := 0; c < 3; c++ {
					normal[c][i] = nrm[c]
				}
				mask[i] = bits
				continue
			}
		}
		fixed, vals := s.bc(x)
		for c := 0; c < 3; c++ {
			if fixed[c] {
				bits += float64(int(1) << c)
				val[c][i] = vals[c]
				nFixedCart++
			}
		}
		mask[i] = bits
	}
	gx.GatherMulti(owned, ghost)
	s.cons.Fixed, s.cons.Val = make([]bool, 4*ns), make([]float64, 4*ns)
	if slip != nil {
		// Uniform across ranks even when this rank's partition never
		// touches a slip boundary: the slip code paths contain collective
		// calls, so the branch must not depend on local node sets.
		s.hasSlip = true
		s.cons.Frames = make([]*[3][3]float64, ns)
	}
	for sl := 0; sl < ns; sl++ {
		bits := int(mask[sl])
		s.cons.Fixed[4*sl+3] = bits&pBit != 0
		if slip != nil && smask[sl] != 0 {
			Q := frameFor([3]float64{normal[0][sl], normal[1][sl], normal[2][sl]})
			s.cons.Frames[sl] = &Q
			s.cons.Fixed[4*sl] = true
			if sl < n {
				s.slipOwned = append(s.slipOwned, int32(sl))
			}
			continue
		}
		for c := 0; c < 3; c++ {
			if bits>>c&1 == 1 {
				s.cons.Fixed[4*sl+c], s.cons.Val[4*sl+c] = true, val[c][sl]
			}
		}
	}
	return nFixedCart
}

// buildNullSpace constructs the orthonormalized rigid-rotation modes
// m_k = e_k x x expressed in the solver's frame (local components at
// slip nodes, zeroed at constrained entries, zero pressure), globally
// Gram-Schmidt orthonormalized (collective).
func (s *Solver) buildNullSpace() {
	m := s.M
	for k := 0; k < 3; k++ {
		v := la.NewVec(s.Layout)
		for i := 0; i < m.NumOwned; i++ {
			x := fem.NodeCoord(m, s.Dom, i)
			var r [3]float64
			switch k {
			case 0:
				r = [3]float64{0, -x[2], x[1]}
			case 1:
				r = [3]float64{x[2], 0, -x[0]}
			case 2:
				r = [3]float64{-x[1], x[0], 0}
			}
			if Q := s.cons.Frames[i]; Q != nil {
				r = matTVec(Q, r)
			}
			for c := 0; c < 3; c++ {
				if s.cons.Fixed[4*i+c] {
					r[c] = 0
				}
			}
			v.Data[4*i], v.Data[4*i+1], v.Data[4*i+2] = r[0], r[1], r[2]
		}
		for _, u := range s.null {
			v.AXPY(-v.Dot(u), u)
		}
		if nrm := v.Norm2(); nrm > 0 {
			v.Scale(1 / nrm)
			s.null = append(s.null, v)
		}
	}
}

// projectNull removes the rigid-rotation null-space components from v in
// place (collective; no-op when the null space is empty).
func (s *Solver) projectNull(v *la.Vec) {
	for _, u := range s.null {
		v.AXPY(-v.Dot(u), u)
	}
}

// finishSetup builds the order-independent tail of Setup: the Schur
// diagonal's vector (always on the Q1 vertex space, where the
// Taylor-Hood pressure also lives), filled by every Update.
func (s *Solver) finishSetup() {
	s.schurInv = la.NewVec(s.nodeL)
}

// Update refreshes the viscosity- and force-dependent half of the solver
// (collective): the coupled operator (matrix-free kernel viscosities or a
// re-assembled CSR), the right-hand side, the velocity-block multigrid
// numerics (GMG smoother diagonals + coarsest-level factors via
// Hierarchy.Rebuild, or re-assembled scalar CSRs + AMG hierarchies), and
// the Schur diagonal.
// etaElem gives the constant viscosity of each local element; force gives
// the body-force vector at each element corner (e.g. Ra*T*e_r), nil for
// none. After Update the solver is numerically identical to a fresh
// Assemble with the same inputs. It returns the solver for chaining.
func (s *Solver) Update(etaElem []float64, force [][8][3]float64) *Solver {
	if s.q2 != nil {
		return s.UpdateQ2(etaElem, s.interpQ2Force(force))
	}
	m, dom, opts := s.M, s.Dom, s.opts

	if opts.MatrixFree {
		s.MF.SetViscosity(etaElem)
		s.B = s.MF.RHS(force)
	} else {
		s.assembleCoupled(etaElem, force)
	}

	// --- Preconditioner ---------------------------------------------

	// A~: the variable-viscosity vector Laplacian, approximated per
	// velocity component (with that component's Dirichlet set) by one
	// multigrid V-cycle. PrecondAMG assembles a scalar Poisson CSR per
	// component and builds an algebraic hierarchy; PrecondGMG refreshes
	// the matrix-free geometric hierarchy instead — the three components
	// share one level stack, and the only matrix ever assembled is the
	// coarsest level's.
	if opts.Precond == PrecondGMG {
		s.GMGH.Rebuild(etaElem)
	} else {
		elemMat := s.viscousElemMat(etaElem)
		for c := 0; c < 3; c++ {
			Ac, _, _ := fem.AssembleScalarWithBC(m, dom, elemMat, nil, s.compBCD[c])
			if opts.LocalAMG {
				s.velPC[c] = amg.NewBlockJacobi(Ac, opts.AMG)
			} else {
				s.velPC[c] = amg.NewRedundant(Ac, opts.AMG)
			}
		}
	}

	if s.hasSlip {
		s.refreshSlipDiag(etaElem)
	}
	s.updateSchur(etaElem)
	return s
}

// viscousElemMat returns the element matrix of the viscosity-scaled
// scalar Laplacian: element ei's unit stiffness kernel times etaElem[ei].
func (s *Solver) viscousElemMat(etaElem []float64) func(ei int, h [3]float64) [8][8]float64 {
	return func(ei int, _ [3]float64) [8][8]float64 {
		K := s.scalKern[s.scalIdx[ei]].Full()
		eta := etaElem[ei]
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				K[a][b] *= eta
			}
		}
		return K
	}
}

// refreshSlipDiag rebuilds the boundary Jacobi rows of the velocity
// preconditioner at free-slip nodes from the raw (unconstrained)
// viscosity-scaled scalar stiffness diagonal — the component V-cycles
// treat slip nodes as Dirichlet, so their tangential rows need an
// explicit SPD stand-in, and a Jacobi row in the rotated frame equals a
// Jacobi row in Cartesian components (the scalar diagonal is isotropic
// per node). Collective on the AMG path; on the GMG path the hierarchy's
// post-Rebuild diagonal cache is reused.
func (s *Solver) refreshSlipDiag(etaElem []float64) {
	var d *la.Vec
	if s.GMGH != nil {
		d = s.GMGH.FineDiag()
	} else {
		d = fem.AssembleScalarDiag(s.M, s.Dom, s.viscousElemMat(etaElem), nil)
	}
	for _, i := range s.slipOwned {
		if v := d.Data[i]; v > 0 {
			s.slipDinv.Data[i] = 1 / v
		} else {
			s.slipDinv.Data[i] = 1
		}
	}
}

// updateSchur refreshes S~, the inverse-viscosity-weighted lumped
// pressure mass on the Q1 vertex space (one sweep + one ghost
// scatter-add; collective). Each element adds W*lm[a]/eta at the masters
// of corner a, lm its unit lumped mass, in element, corner and master
// order.
func (s *Solver) updateSchur(etaElem []float64) {
	m := s.M
	acc := make([]float64, m.NSlots())
	geo := fem.ElemGeomOf(m, s.Dom)
	for ei := range m.Leaves {
		lm := fem.LumpedMassGeom(geo[ei], 1)
		eta := etaElem[ei]
		for a, r := range m.Rows[ei] {
			if r >= 0 {
				acc[r] += lm[a] / eta
				continue
			}
			h := &m.Hang[^r]
			w := h.W()
			for k := 0; k < int(h.N); k++ {
				acc[h.Slot[k]] += w * lm[a] / eta
			}
		}
	}
	sd := la.NewVec(s.nodeL)
	n1 := m.NumOwned
	copy(sd.Data, acc[:n1])
	m.GX.ScatterAdd(acc[n1:], sd.Data)
	for i, v := range sd.Data {
		if v > 0 {
			s.schurInv.Data[i] = 1 / v
		} else {
			s.schurInv.Data[i] = 1
		}
	}
}

// finishCoupled closes a coupled assembly (collective): identity rows
// and boundary values for the constrained dofs owned here.
func (s *Solver) finishCoupled(A *la.Mat, bb *la.VecBuilder) {
	fixed := s.cons.Fixed[:4*s.M.NumOwned]
	for d, is := range fixed {
		if g := 4*s.M.Offset + int64(d); is {
			A.AddValue(g, g, 1)
		}
	}
	A.Assemble()
	b := bb.Finalize()
	for d, is := range fixed {
		if is {
			b.Data[d] = s.cons.Val[d]
		}
	}
	s.A, s.B = A, b
	s.Op = A
}

// matTVec returns Q^T v (Cartesian -> local components).
func matTVec(Q *[3][3]float64, v [3]float64) [3]float64 {
	return [3]float64{
		Q[0][0]*v[0] + Q[1][0]*v[1] + Q[2][0]*v[2],
		Q[0][1]*v[0] + Q[1][1]*v[1] + Q[2][1]*v[2],
		Q[0][2]*v[0] + Q[1][2]*v[1] + Q[2][2]*v[2],
	}
}

// vecMat returns v^T Q, the row vector v with its columns rotated into
// the local frame of the column node.
func vecMat(v [3]float64, Q *[3][3]float64) [3]float64 {
	return [3]float64{
		v[0]*Q[0][0] + v[1]*Q[1][0] + v[2]*Q[2][0],
		v[0]*Q[0][1] + v[1]*Q[1][1] + v[2]*Q[2][1],
		v[0]*Q[0][2] + v[1]*Q[1][2] + v[2]*Q[2][2],
	}
}

// rotBlock conjugates the 3x3 Cartesian coupling block V into the row
// node's and column node's local frames: Qa^T V Qb (each rotation only
// where the node actually carries a frame).
func rotBlock(Qa *[3][3]float64, aRot bool, V [3][3]float64, Qb *[3][3]float64, bRot bool) [3][3]float64 {
	if aRot {
		var W [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				W[i][j] = Qa[0][i]*V[0][j] + Qa[1][i]*V[1][j] + Qa[2][i]*V[2][j]
			}
		}
		V = W
	}
	if bRot {
		var W [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				W[i][j] = V[i][0]*Qb[0][j] + V[i][1]*Qb[1][j] + V[i][2]*Qb[2][j]
			}
		}
		V = W
	}
	return V
}

// assembleCoupled builds the coupled saddle-point CSR and right-hand side
// for the current viscosity and force (collective). The sparsity pattern
// is mesh-dependent, but la.Mat freezes it at Assemble time, so the CSR
// is rebuilt per Update; the cached Dirichlet maps are reused.
//
// At a node with a rotated boundary frame (free slip, cons.Frames) every
// velocity coupling block is conjugated Qa^T V Qb into the local frames
// of its row and column master nodes, grad-p columns and divergence rows
// are rotated on their velocity side, and the body-force load lands in
// the row node's local frame — after which the plain local-index
// Dirichlet elimination constrains exactly the boundary-normal
// components. Without frames (nil table) nothing rotates.
func (s *Solver) assembleCoupled(etaElem []float64, force [][8][3]float64) {
	m := s.M
	fixed, val, frames := s.cons.Fixed, s.cons.Val, s.cons.Frames
	A := la.NewMat(s.Layout)
	bb := la.NewVecBuilder(s.Layout)

	for ei := range m.Leaves {
		// Scale the cached unit kernels — exactly what the matrix-free
		// apply multiplies against.
		eta := etaElem[ei]
		k := s.stokesKern[ei]
		Av, Bd, M8 := k.Av, k.Bd, k.M8
		var Cs [8][8]float64
		inv := 1 / eta
		for a := 0; a < 24; a++ {
			for b := 0; b < 24; b++ {
				Av[a][b] *= eta
			}
		}
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				Cs[a][b] = inv * k.Cs[a][b]
			}
		}
		var cs [8]mesh.Corner
		for a := range cs {
			cs[a] = m.Corner(ei, a)
		}

		// Consistent body-force load: F[a][i] = sum_b M8[a][b] f[b][i].
		var F [8][3]float64
		if force != nil {
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					for i := 0; i < 3; i++ {
						F[a][i] += M8[a][b] * force[ei][b][i]
					}
				}
			}
		}

		for a := 0; a < 8; a++ {
			for ia := 0; ia < int(cs[a].N); ia++ {
				sa, wa := int(cs[a].Slot[ia]), cs[a].W[ia]
				ga := m.GID(cs[a].Slot[ia])
				var Qa *[3][3]float64
				if frames != nil {
					Qa = frames[sa]
				}
				aRot := Qa != nil
				fa := F[a]
				if aRot {
					fa = matTVec(Qa, fa)
				}
				var rowOK [3]bool
				for i := 0; i < 3; i++ {
					if !fixed[4*sa+i] {
						rowOK[i] = true
						bb.Add(4*ga+int64(i), wa*fa[i])
					}
				}
				pFixed := fixed[4*sa+3]
				for b := 0; b < 8; b++ {
					for ib := 0; ib < int(cs[b].N); ib++ {
						sb, wb := int(cs[b].Slot[ib]), cs[b].W[ib]
						gb := m.GID(cs[b].Slot[ib])
						w := wa * wb
						var Qb *[3][3]float64
						if frames != nil {
							Qb = frames[sb]
						}
						bRot := Qb != nil
						var V [3][3]float64
						for i := 0; i < 3; i++ {
							for j := 0; j < 3; j++ {
								V[i][j] = Av[3*a+i][3*b+j]
							}
						}
						if aRot || bRot {
							V = rotBlock(Qa, aRot, V, Qb, bRot)
						}
						G := [3]float64{Bd[b][3*a], Bd[b][3*a+1], Bd[b][3*a+2]}
						if aRot {
							G = matTVec(Qa, G)
						}
						D := [3]float64{Bd[a][3*b], Bd[a][3*b+1], Bd[a][3*b+2]}
						if bRot {
							D = vecMat(D, Qb)
						}
						for i := 0; i < 3; i++ {
							if !rowOK[i] {
								continue
							}
							row := 4*ga + int64(i)
							for j := 0; j < 3; j++ {
								v := w * V[i][j]
								if v == 0 {
									continue
								}
								if fixed[4*sb+j] {
									bb.Add(row, -v*val[4*sb+j])
								} else {
									A.AddValue(row, 4*gb+int64(j), v)
								}
							}
							if v := w * G[i]; v != 0 {
								if fixed[4*sb+3] {
									bb.Add(row, -v*val[4*sb+3])
								} else {
									A.AddValue(row, 4*gb+3, v)
								}
							}
						}
						if !pFixed {
							prow := 4*ga + 3
							for j := 0; j < 3; j++ {
								v := w * D[j]
								if v == 0 {
									continue
								}
								if fixed[4*sb+j] {
									bb.Add(prow, -v*val[4*sb+j])
								} else {
									A.AddValue(prow, 4*gb+int64(j), v)
								}
							}
							if v := -w * Cs[a][b]; v != 0 {
								if fixed[4*sb+3] {
									bb.Add(prow, -v*val[4*sb+3])
								} else {
									A.AddValue(prow, 4*gb+3, v)
								}
							}
						}
					}
				}
			}
		}
	}
	s.finishCoupled(A, bb)
}

// NodeSlots returns the view of the solver mesh's node numbering the
// benchmark harness reads (matfree.NodeSlots).
func (s *Solver) NodeSlots() *matfree.SlotMap { return matfree.NodeSlots(s.M) }

// Assemble builds the Stokes system in one shot (collective): Setup for
// the mesh-dependent half followed by Update for the given viscosity and
// force. Time loops that solve repeatedly on one mesh should call Setup
// once and Update per solve instead.
//
// etaElem gives the constant viscosity of each local element. force gives
// the body-force vector at each element corner (e.g. Ra*T*e_r). bc
// prescribes the velocity Dirichlet conditions.
func Assemble(m *mesh.Mesh, dom fem.Domain, etaElem []float64, force [][8][3]float64, bc VelBC, opts Options) *Solver {
	return Setup(m, dom, bc, opts).Update(etaElem, force)
}

// Precond returns the block-diagonal preconditioner operator P^-1.
func (s *Solver) Precond() krylov.Operator {
	if s.q2 != nil {
		return s.precondQ2()
	}
	return krylov.OpFunc(func(x, y *la.Vec) {
		n := s.nOwned
		if s.velGMG != nil {
			// Velocity block: one geometric V-cycle for the three
			// components, read from and written to the interleaved
			// vectors in place.
			s.velGMG.ApplyStrided(x.Data, y.Data, 4)
		} else {
			// One algebraic multigrid V-cycle per velocity component.
			for c := 0; c < 3; c++ {
				for i := 0; i < n; i++ {
					s.xc.Data[i] = x.Data[4*i+c]
				}
				s.velPC[c].Apply(s.xc, s.yc)
				for i := 0; i < n; i++ {
					y.Data[4*i+c] = s.yc.Data[i]
				}
			}
		}
		// Free-slip tangential rows: the component V-cycles treated slip
		// nodes as Dirichlet (identity pass-through), which would leave
		// the unconstrained tangential dofs effectively unpreconditioned
		// and iteration counts growing with refinement. Overwrite them
		// with viscosity-scaled boundary Jacobi rows; the constrained
		// normal row (local component 0) keeps the identity, like every
		// other Dirichlet row. The result stays SPD: the V-cycle output
		// at interior nodes is independent of its slip-node inputs (it
		// zeroes them on entry), so the modified operator is block
		// diagonal across the interior/boundary split.
		if s.hasSlip {
			for _, i := range s.slipOwned {
				d := s.slipDinv.Data[i]
				y.Data[4*int(i)+1] = d * x.Data[4*int(i)+1]
				y.Data[4*int(i)+2] = d * x.Data[4*int(i)+2]
			}
		}
		// Pressure: diagonal Schur approximation.
		for i := 0; i < n; i++ {
			y.Data[4*i+3] = s.schurInv.Data[i] * x.Data[4*i+3]
		}
	})
}

// Solve runs preconditioned MINRES from a zero initial guess, using the
// assembled or matrix-free operator per Options.MatrixFree, and returns
// the solution with the result. The solve depends on the current
// operator and right-hand side alone, and its stop test is relative to
// the right-hand side. When the free-slip configuration leaves the
// rigid rotations unconstrained, the iteration runs on the orthogonal
// complement of the 3 rotation modes: right-hand side, operator and
// preconditioner outputs are all projected, so MINRES never sees (or
// stagnates on) the null space and the returned solution carries no net
// rotation.
func (s *Solver) Solve(rtol float64, maxIt int) (*la.Vec, krylov.Result) {
	op, pc, b := s.Op, s.Precond(), s.B
	if len(s.null) > 0 {
		b = b.Clone()
		s.projectNull(b)
		innerOp, innerPC := op, pc
		op = krylov.OpFunc(func(in, out *la.Vec) {
			innerOp.Apply(in, out)
			s.projectNull(out)
		})
		pc = krylov.OpFunc(func(in, out *la.Vec) {
			innerPC.Apply(in, out)
			s.projectNull(out)
		})
	}
	x := la.NewVec(s.Layout)
	return x, krylov.MINRES(op, pc, b, x, rtol, maxIt)
}

// SplitSolution extracts nodal velocity components and pressure from the
// interleaved solution vector (node layout vectors).
func (s *Solver) SplitSolution(x *la.Vec) (u [3]*la.Vec, p *la.Vec) {
	nodeL := s.nodeL
	if s.q2 != nil {
		// Order 2: sample the Q2 solution at the vertices (where the
		// pressure dofs live), returning Q1 node-layout vectors so the
		// advection, output and diagnostic layers work unchanged.
		for c := 0; c < 3; c++ {
			u[c] = la.NewVec(nodeL)
		}
		p = la.NewVec(nodeL)
		for li := 0; li < s.M.NumOwned; li++ {
			qi := int(s.q2.Q1ToQ2[li])
			for c := 0; c < 3; c++ {
				u[c].Data[li] = x.Data[4*qi+c]
			}
			p.Data[li] = x.Data[4*qi+3]
		}
		return
	}
	for c := 0; c < 3; c++ {
		u[c] = la.NewVec(nodeL)
		for i := 0; i < s.nOwned; i++ {
			u[c].Data[i] = x.Data[4*i+c]
		}
	}
	// Free-slip nodes hold local-frame components in the solution vector;
	// rotate them back to Cartesian (u = Q v_local) for the advection,
	// diagnostic and output layers.
	if s.hasSlip {
		for _, li := range s.slipOwned {
			i := int(li)
			Q := s.cons.Frames[i]
			v0, v1, v2 := x.Data[4*i], x.Data[4*i+1], x.Data[4*i+2]
			u[0].Data[i] = Q[0][0]*v0 + Q[0][1]*v1 + Q[0][2]*v2
			u[1].Data[i] = Q[1][0]*v0 + Q[1][1]*v1 + Q[1][2]*v2
			u[2].Data[i] = Q[2][0]*v0 + Q[2][1]*v1 + Q[2][2]*v2
		}
	}
	p = la.NewVec(nodeL)
	for i := 0; i < s.nOwned; i++ {
		p.Data[i] = x.Data[4*i+3]
	}
	return
}
