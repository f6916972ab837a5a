// Package gmg implements a matrix-free geometric multigrid preconditioner
// for the velocity block of the Stokes system — the paper-scale
// alternative to the assembled AMG hierarchies of package amg. The level
// hierarchy is the octree itself: each coarser level is a CoarsenedCopy
// of the finer tree (complete families merged, 2:1 balance restored) with
// its own extracted mesh, and grid transfer is the trilinear stencil pair
// fem.Transfer (prolongation interpolates the constrained coarse space,
// restriction is its exact transpose). Smoothing is one damped-Jacobi
// sweep on each side of the coarse correction; the level operators apply
// the variable-viscosity stiffness per element from cached unit kernels,
// over each level mesh's own node slots and ghost plan. Only the coarsest
// level is ever assembled: it is gathered onto a single rank, where each
// field's dense matrix is Cholesky-factored once per viscosity and solved
// by substitution — so with a matrix-free Stokes apply the whole solve
// never assembles a fine-level matrix, no level's matrix is ever
// replicated across ranks, and a V-cycle enters no collective.
//
// The hierarchy is partition-aware: once a level falls below
// Options.AgglomThreshold elements per rank, its octants are
// repartitioned onto a power-of-two subset of the ranks (sim
// communicator subsets) before coarsening continues, and ranks outside
// the subset idle below that gap. Agglomeration removes the two
// obstructions a fixed partition puts in the way of deep coarsening at
// scale: rank-boundary families never merge, so coarsening stalls with
// ~P elements left, and coarse-level exchanges pay for P ranks to smooth
// a handful of elements. The repartition gap itself is a pure
// permutation of node values (restriction and prolongation across the
// gap are transposes of each other), so the V-cycle stays symmetric.
//
// Setup is split so a convection time loop can amortize it. NewHierarchy
// builds everything that depends only on the mesh: level trees and
// meshes, transfer stencils, unit kernels, restriction maps, and
// slot-space diagonal plans whose coefficients make the smoother
// diagonals linear functions of the element viscosities. Rebuild
// refreshes everything that depends on the viscosity — restricted
// per-level etas, smoother diagonals (one flat plan scan each), the
// lambda_max estimates that set the Jacobi damping (a short Lanczos run,
// shared across the three velocity components), and the coarsest level's
// Cholesky factors (assembled from the cached kernels on the one rank
// that holds it, without communication) — at a small fraction of the
// hierarchy construction cost, and leaves the result indistinguishable
// from a freshly built hierarchy for the same viscosity.
//
// The cycle itself (VCycle, vcycle.go) is written once for w fields per
// node: the Stokes velocity block runs as one width-3 cycle whose every
// sweep, transfer and exchange carries the three components of a node
// together, and the scalar preconditioner of Precond is the same code at
// w = 1.
package gmg

import (
	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// Options tunes the depth and partitioning of the hierarchy. The cycle
// itself — one damped-Jacobi sweep on each side of the coarse correction
// and an exact coarsest solve — has no knobs.
type Options struct {
	// MaxLevels caps the number of mesh levels (default 25).
	MaxLevels int
	// CoarseElems stops coarsening once the global element count is at
	// or below this (default 32); that level is gathered onto one rank,
	// where its dense matrices are assembled and factored.
	CoarseElems int64
	// AgglomThreshold is the minimum elements per rank a level keeps
	// before its octants are agglomerated onto a power-of-two rank
	// subset (default 8). Levels below it repartition first, so
	// coarsening never stalls against rank boundaries and coarse
	// exchanges shrink with the work.
	AgglomThreshold int64
}

func (o Options) withDefaults() Options {
	if o.MaxLevels == 0 {
		o.MaxLevels = 25
	}
	if o.CoarseElems == 0 {
		o.CoarseElems = 32
	}
	if o.AgglomThreshold == 0 {
		o.AgglomThreshold = 8
	}
	return o
}

const (
	// lanczosSteps is the Lanczos step count of the per-level lambda_max
	// estimate of the Jacobi-preconditioned spectrum: Lanczos reaches the
	// extreme eigenvalue of these spectra within a few percent by then
	// (validated against 4-decade random viscosity fields). The estimate
	// runs once per viscosity rebuild, on one velocity component only —
	// the three components' spectra differ just by boundary identity
	// rows.
	lanczosSteps = 6
	// jacobiTheta sets the smoother's damping, omega = 1/(jacobiTheta *
	// lambda_max): the midpoint of the interval [1.1*lmax/4, 1.1*lmax], so
	// the sweep is the degree-1 Chebyshev smoother on that interval.
	// omega*lambda_max is then 1.45, well below the limit of 2 past which
	// a Jacobi sweep stops being an A-norm contraction (and the V-cycle
	// stops being positive definite), even if the estimate is 25% low.
	jacobiTheta = 0.6875
)

// level is one mesh level of the hierarchy with its viscosity and the
// packed data the level operator streams: unit element kernels in one
// flat array (viscosity scales linearly, so on axis-aligned meshes one
// [8][8] brick per octree level serves every element of that size; on
// mapped meshes every element has its own) and, for elements with no
// hanging corner, the eight corner slots as one 32-byte row instead of
// the 448-byte corner table row. eta is the only viscosity-dependent
// field; everything else survives a Rebuild.
type level struct {
	mesh   *mesh.Mesh
	eta    []float64
	kern   [][8][8]float64 // distinct unit kernels
	kidx   []int32         // element -> its kernel in kern
	rows   [][8]int32      // element -> corner slots; rows[ei][0] < 0: constrained, use mesh.Corners[ei]
	dplan  []diagTerm      // slot-space diagonal assembly plan (BC-independent)
	repart bool            // shadow of a repartition gap: same global octants
	//                         as the level above on fewer ranks, never smoothed
}

// newLevel builds the packed operator data of a level mesh (local).
// Shadow levels of a repartition gap (repart) carry the
// full slot and kernel machinery — the coarse solve may assemble there,
// and coarsening continues from them — but no diagonal plan: they pass
// the residual through unsmoothed, since smoothing them would just
// repeat the finer twin's sweep on fewer ranks.
func newLevel(m *mesh.Mesh, dom fem.Domain, repart bool) *level {
	lv := &level{mesh: m, repart: repart}
	lv.kern, lv.kidx = fem.UnitStiffnessKernels(m, dom)

	// Pack the corner slots of unconstrained elements.
	lv.rows = make([][8]int32, len(m.Corners))
	for ei := range m.Corners {
		cs := &m.Corners[ei]
		for a := 0; a < 8; a++ {
			if cs[a].N != 1 || cs[a].W[0] != 1 {
				lv.rows[ei][0] = -1
				break
			}
			lv.rows[ei][a] = cs[a].Slot[0]
		}
	}
	if !repart {
		lv.dplan = buildDiagPlan(lv)
	}
	return lv
}

// Hierarchy is the geometric level stack shared by the V-cycles built on
// it: meshes, viscosities and transfer stencils are boundary-condition
// independent, so they are built once and serve every field of every
// cycle (the three velocity components of the Stokes block ride in
// one). The mesh-dependent half (level meshes, transfer
// stencils, unit kernels) is built by NewHierarchy and never touched
// again; the viscosity-dependent half (per-level etas, smoother
// diagonals and damping, coarsest-level factors) is (re)derived by
// Rebuild, so a time loop keeps one Hierarchy per mesh and refreshes it
// per Picard iteration.
type Hierarchy struct {
	dom    fem.Domain
	opts   Options
	levels []*level        // levels[0] is the finest (input) mesh; local stack only
	trans  []*fem.Transfer // trans[l] couples levels l (fine) and l+1 (coarse); nil at repart gaps
	elems  []int64         // global element count per level
	restr  [][]int32       // restr[l]: fine element of level l -> coarse element of level l+1; nil at repart gaps
	rps    []*repart       // rps[l]: the repartition plan of gap l; nil at coarsen gaps
	cycles []*VCycle       // cycles handed out by Precond/PrecondBlock, refreshed by Rebuild
	hasEta bool            // Rebuild has run at least once

	// Exactly one of the following holds on every rank: the local stack
	// ends at the coarsest level of the whole hierarchy (coarseHere), or
	// it ends just above a repartition gap whose subset this rank is not
	// in (partial is that gap's plan — the rank still couples into every
	// transfer across it, then idles while the subset works below).
	coarseHere bool
	partial    *repart

	// Global hierarchy summary, broadcast from rank 0 by finalize so the
	// accessors answer identically on every rank — including ranks whose
	// local stack was truncated by an agglomeration gap.
	gDepth       int
	gElems       []int64
	gCoarseNodes int64
	gCoarseP     int

	// lmaxEta and diagEta cache the per-level lambda_max estimates and
	// raw operator diagonals of the current viscosity, computed by the
	// first cycle refreshed after a Rebuild (from its first field) and
	// shared by every field of every cycle (the diagonal is
	// boundary-condition independent; each field only overwrites its own
	// Dirichlet rows with 1).
	lmaxEta   []float64
	diagEta   []*la.Vec
	lmaxValid bool
}

// NewHierarchy derives the mesh-dependent coarse level stack from the
// extracted fine mesh (collective): repeated forest CoarsenedCopy + mesh
// extraction until the global
// element count falls to Options.CoarseElems or the level cap is hit,
// agglomerating a level onto a power-of-two rank subset whenever its
// elements-per-rank falls below Options.AgglomThreshold or coarsening
// stalls against the partition. Ranks that drop out of a subset return
// with a truncated local stack (and the gap's plan as h.partial); the
// global accessors still answer on them. No viscosity is attached yet —
// call Rebuild (or use New) before applying any preconditioner built
// from it.
func NewHierarchy(m *mesh.Mesh, dom fem.Domain, opts Options) *Hierarchy {
	o := opts.withDefaults()
	h := &Hierarchy{dom: dom, opts: o}
	fineComm := m.Rank
	h.levels = append(h.levels, newLevel(m, dom, false))
	h.elems = append(h.elems, m.Rank.AllreduceInt64(int64(len(m.Leaves))))

	coarsen := coarsenerFor(m)
	for len(h.levels) < o.MaxLevels && h.elems[len(h.elems)-1] > o.CoarseElems {
		lv := h.levels[len(h.levels)-1]
		E := h.elems[len(h.elems)-1]
		P := int64(lv.mesh.Rank.Size())
		if P > 1 && E < P*o.AgglomThreshold {
			// Too few elements per rank for this partition to keep
			// coarsening productively: agglomerate first, onto few enough
			// ranks that several more octree levels fit above the
			// threshold (factor-8 headroom per level).
			t := E / (8 * o.AgglomThreshold)
			if t < 1 {
				t = 1
			}
			if !h.agglomerate(int(pow2Floor(t))) {
				h.finalize(fineComm)
				return h
			}
			coarsen = coarsenerFor(h.levels[len(h.levels)-1].mesh)
			continue
		}
		cm, merged := coarsen()
		var ce int64
		if merged > 0 {
			ce = cm.Rank.AllreduceInt64(int64(len(cm.Leaves)))
		}
		if merged == 0 || ce >= E {
			// Coarsening stalled under this partition: no family merged,
			// or balance re-split everything (rank-boundary families never
			// merge). On one rank that is genuine degeneration; on more,
			// moving the level onto half the ranks clears the boundaries
			// and unlocks the merges. The coarsener's advanced state is
			// useless either way — rebuild it from the shadow mesh.
			if P == 1 {
				break
			}
			// Jump toward the element-matched rank count (at least halve):
			// a stall caused by rank-boundary families clears after one
			// step, and a stubborn one (2:1 balance re-splitting merges)
			// must not creep down one halving at a time.
			t := pow2Floor(P / 2)
			if et := E / (8 * o.AgglomThreshold); et >= 1 && pow2Floor(et) < t {
				t = pow2Floor(et)
			}
			if !h.agglomerate(int(t)) {
				h.finalize(fineComm)
				return h
			}
			coarsen = coarsenerFor(h.levels[len(h.levels)-1].mesh)
			continue
		}
		h.trans = append(h.trans, fem.NewTransfer(lv.mesh, cm))
		// Fine-to-coarse element containment map, used by every Rebuild
		// to restrict the viscosity without re-searching the Morton order.
		ci := make([]int32, len(lv.mesh.Leaves))
		for ei, leaf := range lv.mesh.Leaves {
			ci[ei] = int32(findLeafIn(cm, lv.mesh.Trees[ei], leaf))
		}
		h.restr = append(h.restr, ci)
		h.rps = append(h.rps, nil)
		h.levels = append(h.levels, newLevel(cm, dom, false))
		h.elems = append(h.elems, ce)
	}
	// The coarsest level is solved exactly on one rank: gather it there,
	// so its matrices are that rank's alone and the solve needs no
	// communication beyond the gap's point-to-point transfers.
	if h.levels[len(h.levels)-1].mesh.Rank.Size() > 1 && !h.agglomerate(1) {
		h.finalize(fineComm)
		return h
	}
	h.coarseHere = true
	h.finalize(fineComm)
	return h
}

// agglomerate inserts a repartition gap after the current coarsest
// level, moving its octants onto the first newP ranks of its
// communicator (collective on that communicator). Members of the subset
// get the shadow level appended and report true; the rest record the
// gap as their partial plan, stop growing their stack, and report
// false.
func (h *Hierarchy) agglomerate(newP int) bool {
	lv := h.levels[len(h.levels)-1]
	rp, sm := buildRepart(lv.mesh, newP)
	if sm == nil {
		h.partial = rp
		return false
	}
	h.trans = append(h.trans, nil)
	h.restr = append(h.restr, nil)
	h.rps = append(h.rps, rp)
	h.levels = append(h.levels, newLevel(sm, h.dom, true))
	h.elems = append(h.elems, h.elems[len(h.elems)-1])
	return true
}

// hierInfo is the global summary finalize broadcasts from rank 0 (a
// member of every agglomerated subset — they are nested rank prefixes),
// so every rank can answer the hierarchy accessors.
type hierInfo struct {
	depth       int
	elems       []int64
	coarseNodes int64
	coarseP     int
}

func (h *Hierarchy) finalize(fineComm *sim.Comm) {
	var info hierInfo
	if fineComm.ID() == 0 {
		last := h.levels[len(h.levels)-1]
		info = hierInfo{
			depth:       len(h.levels),
			elems:       h.elems,
			coarseNodes: last.mesh.NGlobal,
			coarseP:     last.mesh.Rank.Size(),
		}
	}
	info = fineComm.Bcast(0, info, 64).(hierInfo)
	h.gDepth = info.depth
	h.gElems = info.elems
	h.gCoarseNodes = info.coarseNodes
	h.gCoarseP = info.coarseP
}

// coarsenerFor returns a closure producing successively coarser meshes
// by forest CoarsenedCopy, with the mesh's geometry carried down the
// levels. The second return of each call is the number of families
// merged globally.
func coarsenerFor(m *mesh.Mesh) func() (*mesh.Mesh, int64) {
	fr := forest.FromLeaves(m.Rank, m.Conn, forestLeaves(m))
	return func() (*mesh.Mesh, int64) {
		cfr, merged := fr.CoarsenedCopy()
		if merged == 0 {
			return nil, 0
		}
		fr = cfr
		return mesh.Extract(cfr, m.Geom), merged
	}
}

// forestLeaves reassembles the forest octants of a mesh's elements.
func forestLeaves(m *mesh.Mesh) []forest.Octant {
	out := make([]forest.Octant, len(m.Leaves))
	for i, o := range m.Leaves {
		out[i] = forest.Octant{Tree: m.Trees[i], O: o}
	}
	return out
}

// New builds the hierarchy and attaches the fine per-element viscosity in
// one call (collective) — NewHierarchy followed by Rebuild.
func New(m *mesh.Mesh, dom fem.Domain, etaElem []float64, opts Options) *Hierarchy {
	h := NewHierarchy(m, dom, opts)
	h.Rebuild(etaElem)
	return h
}

// Rebuild re-derives every viscosity-dependent quantity from a new fine
// per-element viscosity while keeping the level meshes and
// transfer stencils (collective): coarse viscosities are volume-weighted
// restrictions of etaElem (shipped across repartition gaps unchanged —
// the octants are identical on both sides), and every VCycle handed out
// by Precond/PrecondBlock refreshes its smoother diagonals, Jacobi
// damping and coarsest-level Cholesky factors. After Rebuild the
// hierarchy preconditions exactly as a freshly built one for the same
// viscosity.
func (h *Hierarchy) Rebuild(etaElem []float64) {
	h.levels[0].eta = etaElem
	for l := 1; l < len(h.levels); l++ {
		if h.levels[l].repart {
			h.levels[l].eta = h.rps[l-1].ElemForward(h.levels[l-1].eta)
		} else {
			h.levels[l].eta = restrictEtaMapped(h.levels[l-1].mesh, h.levels[l].mesh,
				h.restr[l-1], h.levels[l-1].eta)
		}
	}
	if h.partial != nil {
		// This rank idles below its last level, but the gap's viscosity
		// transfer is collective on the pre-gap communicator.
		h.partial.ElemForward(h.levels[len(h.levels)-1].eta)
	}
	h.hasEta = true
	h.lmaxValid = false
	for _, c := range h.cycles {
		c.refresh()
	}
}

// restrictEtaMapped volume-averages the fine per-element viscosity onto
// the coarse elements using the precomputed containment map (local:
// coverage alignment makes every fine leaf's coarse container local).
func restrictEtaMapped(fine, coarse *mesh.Mesh, ci []int32, eta []float64) []float64 {
	sumW := make([]float64, len(coarse.Leaves))
	sumE := make([]float64, len(coarse.Leaves))
	for ei, leaf := range fine.Leaves {
		c := ci[ei]
		w := float64(leaf.Len())
		w = w * w * w
		sumW[c] += w
		sumE[c] += w * eta[ei]
	}
	out := make([]float64, len(coarse.Leaves))
	for c := range out {
		if sumW[c] > 0 {
			out[c] = sumE[c] / sumW[c]
		} else {
			out[c] = 1
		}
	}
	return out
}

// NumLevels returns the global hierarchy depth (1 = no coarsening
// happened), valid on every rank — including ranks whose local stack
// was truncated by an agglomeration gap.
func (h *Hierarchy) NumLevels() int { return h.gDepth }

// LevelElems returns the global element count per level, finest first
// (repartition gaps keep the count — the shadow level holds the same
// octants on fewer ranks). Valid on every rank.
func (h *Hierarchy) LevelElems() []int64 { return append([]int64(nil), h.gElems...) }

// CoarseNodes returns the global node count of the coarsest level — the
// only level whose operator is ever assembled. Valid on every rank.
func (h *Hierarchy) CoarseNodes() int64 { return h.gCoarseNodes }

// CoarseRanks returns how many ranks hold the coarsest level after
// agglomeration. Valid on every rank.
func (h *Hierarchy) CoarseRanks() int { return h.gCoarseP }

// Degenerate reports that coarsening stopped above Options.CoarseElems
// — the hierarchy is too shallow for level-independent convergence and
// its coarsest solve carries more work than intended. With
// agglomeration this only happens on meshes a single rank cannot
// coarsen (pathological refinement patterns), not from partition
// stalls. Valid on every rank.
func (h *Hierarchy) Degenerate() bool { return h.gElems[h.gDepth-1] > h.opts.CoarseElems }

// CoarseTarget returns the effective CoarseElems option after defaults —
// the element count coarsening aims for.
func (h *Hierarchy) CoarseTarget() int64 { return h.opts.CoarseElems }

// Precond builds the matrix-free V-cycle preconditioner for one scalar
// field with the given Dirichlet set, over the node layout: the width-1
// instance of PrecondBlock (collective).
func (h *Hierarchy) Precond(bc fem.ScalarBC) krylov.Operator {
	return h.PrecondBlock([]fem.ScalarBC{bc})
}

// PrecondBlock builds the matrix-free V-cycle preconditioner for
// len(bcs) scalar fields on the node layout, field c constrained by
// bcs[c] (collective: it gathers BC masks per level and allocates the
// level operators and work buffers). All fields go through one cycle —
// one sweep over each level's mesh data and one message per neighbor
// per exchange, whatever the field count — and each comes out exactly as
// from a cycle of its own. The result is SPD: the same Jacobi sweep
// before and after the correction, transpose transfer pair, exact
// coarse solve.
//
// Only the mesh/BC-dependent structure is built here. If a viscosity is
// already attached (New or a prior Rebuild) the cycle's numeric state —
// smoother diagonals, damping, coarse factors — is derived immediately;
// otherwise it is deferred to the first Rebuild, which is the
// Setup/Update order the persistent Stokes solver uses.
//
// Every cycle is registered with the hierarchy and refreshed by every
// subsequent Rebuild, so build one per distinct set of Dirichlet sets
// per hierarchy lifetime (the Stokes solver builds exactly one per
// Setup) — repeated calls would accumulate live registrations that each
// Rebuild keeps paying for.
func (h *Hierarchy) PrecondBlock(bcs []fem.ScalarBC) *VCycle {
	c := newVCycle(h, bcs)
	h.cycles = append(h.cycles, c)
	if h.hasEta {
		c.refresh()
	}
	return c
}

// FineDiag returns the raw (boundary-condition independent) diagonal of
// the finest level's viscosity-scaled scalar stiffness operator in the
// node layout (collective on the first call after a Rebuild, cached
// afterwards). The Stokes solver's free-slip boundary Jacobi rows are
// built from it.
func (h *Hierarchy) FineDiag() *la.Vec { return h.sharedDiag(0) }

// sharedDiag computes the raw operator diagonal of smoothed level l for
// the level's current viscosity (collective: one ghost scatter-add): a
// flat scan of the precomputed slot-space plan, agreeing with
// fem.AssembleScalarDiag to rounding at unconstrained nodes. The result
// is boundary-condition independent and cached per Rebuild, so every
// field of every cycle shares one scan per level.
func (h *Hierarchy) sharedDiag(l int) *la.Vec {
	if h.lmaxValid {
		return h.diagEta[l]
	}
	lv := h.levels[l]
	m := lv.mesh
	n := m.NumOwned
	acc := make([]float64, m.NSlots())
	for _, t := range lv.dplan {
		acc[t.Slot] += lv.eta[t.Elem] * t.Coef
	}
	d := la.NewVec(m.Layout())
	copy(d.Data, acc[:n])
	m.GX.ScatterAdd(acc[n:], d.Data)
	h.diagEta[l] = d
	return d
}

// refresh re-derives the cycle's viscosity-dependent state from the
// current level etas (collective): matrix-free smoother diagonals per
// smoothed level (inverting the shared diagonal scan, with each field's
// Dirichlet rows set to 1), the Jacobi damping from the lambda_max
// estimates (a short Lanczos run per level on the first field's
// operator, done by the first cycle after each Rebuild and shared via the
// hierarchy cache), and on the one rank that holds the coarsest level
// each field's dense Cholesky factor, assembled from the cached unit
// kernels without communication.
func (c *VCycle) refresh() {
	h, w := c.h, c.w
	nl := len(h.levels)
	if len(h.lmaxEta) < nl {
		h.lmaxEta = make([]float64, nl)
		h.diagEta = make([]*la.Vec, nl)
	}
	for l, lv := range h.levels {
		if h.coarseHere && l == nl-1 {
			for k, bcd := range c.coarseBC {
				c.coarse[k] = factorCoarse(lv, bcd, l, k)
			}
			break
		}
		if lv.repart {
			continue // pass-through level, never smoothed
		}
		d := h.sharedDiag(l)
		dinv := c.dinv[l]
		for i, v := range d.Data {
			inv := 1.0
			if v != 0 {
				inv = 1 / v
			}
			for k := 0; k < w; k++ {
				dinv[w*i+k] = inv
			}
		}
		for _, e := range c.ops[l].ownFixed {
			dinv[e] = 1 // Dirichlet identity rows
		}
		if !h.lmaxValid {
			dinv0 := la.NewVec(d.Layout)
			for i := range dinv0.Data {
				dinv0.Data[i] = dinv[w*i]
			}
			h.lmaxEta[l] = krylov.EstimateLambdaMaxLanczos(c.ops[l].field(0), dinv0, lanczosSteps)
		}
		c.omega[l] = 1 / (jacobiTheta * h.lmaxEta[l])
	}
	h.lmaxValid = true
}
