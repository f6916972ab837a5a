package dg

import (
	"fmt"
	"math"
	"sort"

	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Advection is a nodal DG discretization of the linear advection equation
//
//	dT/dt + u . grad T = 0
//
// on an adaptive forest-of-octrees mesh, with upwind numerical fluxes.
// The velocity is constant per element (given in tree-reference units).
// Nonconforming 2:1 faces are handled by evaluating the neighbor's face
// polynomial at this element's face nodes (interpolation mortar); the
// paper integrates sub-faces with LGL quadrature instead, which differs
// only in how the coarse side accumulates the flux.
type Advection struct {
	F *forest.Forest
	K *Kernels

	// U is the solution, element-major: U[e*n3 : (e+1)*n3].
	U []float64
	// Vel is the constant velocity per local element.
	Vel [][3]float64
	// Inflow is the boundary value used on inflow physical boundaries.
	Inflow float64

	n3    int
	faces [][6]faceData
	ghost ghostPlan
	// RK work arrays.
	resid, rhs []float64
	// ghost element values, element-major, aligned with ghost.leaves.
	ghostU []float64
}

// nodeRef locates the flux counterpart of one face node.
type nodeRef struct {
	elem int32 // local element index, or len(local)+g for ghost g, or -1 boundary
	axis int8  // neighbor face normal axis
	side int8  // 0 = low face, 1 = high face of the neighbor
	pt   [2]float64
}

type faceData struct {
	boundary bool
	nodes    []nodeRef // per face node (t1 fastest)
}

type ghostPlan struct {
	leaves  []forest.Octant // sorted ghost leaves
	sendIdx [][]int32       // per rank: local element indices to send
	recvOff [][]int32       // per rank: ghost slots received from that rank
	// Persisted sparse neighborhood: sendTo lists the ranks with
	// non-empty sendIdx, recvFrom those with non-empty recvOff, so each
	// stage's value update exchanges messages only with actual neighbors.
	sendTo   []int
	recvFrom []int
}

// VelocityFn gives the constant advection velocity of an element in tree
// reference units.
type VelocityFn func(f *forest.Forest, o forest.Octant) [3]float64

// NewAdvection builds the solver on the current forest mesh (collective).
// init gives the initial nodal values by tree-reference position.
func NewAdvection(f *forest.Forest, p int, vel VelocityFn, init func(o forest.Octant, x [3]float64) float64) *Advection {
	a := &Advection{F: f, K: NewKernels(p)}
	a.n3 = a.K.N * a.K.N * a.K.N
	a.Rebuild(vel)
	a.U = make([]float64, a.n3*f.NumLocal())
	if init != nil {
		for ei, o := range f.Leaves() {
			a.fillElement(a.U[ei*a.n3:(ei+1)*a.n3], o, init)
		}
	}
	return a
}

// fillElement samples init at the element's LGL nodes.
func (a *Advection) fillElement(u []float64, o forest.Octant, init func(o forest.Octant, x [3]float64) float64) {
	n := a.K.N
	h := float64(o.O.Len())
	anchor := [3]float64{float64(o.O.X), float64(o.O.Y), float64(o.O.Z)}
	for l := 0; l < n; l++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := [3]float64{
					anchor[0] + h*(a.K.B.Nodes[i]+1)/2,
					anchor[1] + h*(a.K.B.Nodes[j]+1)/2,
					anchor[2] + h*(a.K.B.Nodes[l]+1)/2,
				}
				u[i+n*(j+n*l)] = init(o, x)
			}
		}
	}
}

// Rebuild recomputes velocity, ghost plan and face connectivity for the
// current mesh (collective). Must be called after any adaptation step.
func (a *Advection) Rebuild(vel VelocityFn) {
	f := a.F
	leaves := f.Leaves()
	a.Vel = make([][3]float64, len(leaves))
	for i, o := range leaves {
		a.Vel[i] = vel(f, o)
	}
	a.buildGhosts()
	a.buildFaces()
	a.resid = make([]float64, a.n3*len(leaves))
	a.rhs = make([]float64, a.n3*len(leaves))
}

// buildGhosts exchanges face-adjacent leaves with remote ranks.
func (a *Advection) buildGhosts() {
	f := a.F
	r := f.Rank()
	p := r.Size()
	sendSet := make([]map[int32]struct{}, p)
	for i := range sendSet {
		sendSet[i] = map[int32]struct{}{}
	}
	var owners []int
	for li, o := range f.Leaves() {
		for face := 0; face < 6; face++ {
			n, ok := f.FaceNeighbor(o, face)
			if !ok {
				continue
			}
			owners = f.Owners(n, owners[:0])
			for _, rk := range owners {
				if rk != r.ID() {
					sendSet[rk][int32(li)] = struct{}{}
				}
			}
		}
	}
	a.ghost.sendIdx = make([][]int32, p)
	a.ghost.sendTo = a.ghost.sendTo[:0]
	var out []any
	var nb []int
	for rk := 0; rk < p; rk++ {
		idx := make([]int32, 0, len(sendSet[rk]))
		for li := range sendSet[rk] {
			idx = append(idx, li)
		}
		sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
		a.ghost.sendIdx[rk] = idx
		if len(idx) == 0 || rk == r.ID() {
			continue
		}
		a.ghost.sendTo = append(a.ghost.sendTo, rk)
		ls := make([]forest.Octant, len(idx))
		for k, li := range idx {
			ls[k] = f.Leaves()[li]
		}
		out = append(out, ls)
		nb = append(nb, 20*len(ls))
	}
	froms, in := r.AlltoallvSparse(a.ghost.sendTo, out, nb)
	a.ghost.leaves = a.ghost.leaves[:0]
	type srcRange struct {
		rank, count int
	}
	var ranges []srcRange
	for i, d := range in {
		ls := d.([]forest.Octant)
		a.ghost.leaves = append(a.ghost.leaves, ls...)
		ranges = append(ranges, srcRange{froms[i], len(ls)})
	}
	// Sort ghosts and remember, per source rank, which slots its
	// elements landed in (for value updates each stage).
	type tagged struct {
		o    forest.Octant
		rank int
		k    int
	}
	tags := make([]tagged, 0, len(a.ghost.leaves))
	{
		pos := 0
		for _, rg := range ranges {
			for k := 0; k < rg.count; k++ {
				tags = append(tags, tagged{a.ghost.leaves[pos], rg.rank, k})
				pos++
			}
		}
	}
	sort.Slice(tags, func(i, j int) bool { return forest.Less(tags[i].o, tags[j].o) })
	a.ghost.leaves = a.ghost.leaves[:0]
	a.ghost.recvOff = make([][]int32, p)
	for rk := 0; rk < p; rk++ {
		a.ghost.recvOff[rk] = nil
	}
	perRank := make([][]int32, p)
	for slot, tg := range tags {
		a.ghost.leaves = append(a.ghost.leaves, tg.o)
		for len(perRank[tg.rank]) <= tg.k {
			perRank[tg.rank] = append(perRank[tg.rank], 0)
		}
		perRank[tg.rank][tg.k] = int32(slot)
	}
	a.ghost.recvFrom = a.ghost.recvFrom[:0]
	for rk := 0; rk < p; rk++ {
		a.ghost.recvOff[rk] = perRank[rk]
		if len(perRank[rk]) > 0 {
			a.ghost.recvFrom = append(a.ghost.recvFrom, rk)
		}
	}
	a.ghostU = make([]float64, a.n3*len(a.ghost.leaves))
}

// findElem locates the leaf equal to or containing o among local and
// ghost leaves; it returns the combined index (ghosts offset by nLocal).
func (a *Advection) findElem(o forest.Octant) (int32, forest.Octant, bool) {
	if l, idx, ok := a.F.FindContaining(o); ok {
		return int32(idx), l, true
	}
	ls := a.ghost.leaves
	i := sort.Search(len(ls), func(i int) bool {
		if ls[i].Tree != o.Tree {
			return ls[i].Tree > o.Tree
		}
		return ls[i].O.Key() > o.O.Key()
	})
	if i > 0 {
		l := ls[i-1]
		if l.Tree == o.Tree && l.O.ContainsOrEqual(o.O) {
			return int32(a.F.NumLocal() + i - 1), l, true
		}
	}
	return -1, forest.Octant{}, false
}

// tangentAxes returns the two tangential axes of a face in increasing
// order.
var tangentAxes = [6][2]int{{1, 2}, {1, 2}, {0, 2}, {0, 2}, {0, 1}, {0, 1}}

// buildFaces precomputes the per-node flux references.
func (a *Advection) buildFaces() {
	f := a.F
	n := a.K.N
	leaves := f.Leaves()
	a.faces = make([][6]faceData, len(leaves))
	for ei, o := range leaves {
		for face := 0; face < 6; face++ {
			fd := &a.faces[ei][face]
			nOct, ok := f.FaceNeighbor(o, face)
			if !ok {
				fd.boundary = true
				continue
			}
			fd.nodes = make([]nodeRef, n*n)
			t := tangentAxes[face]
			ax := faceNormalAxisDG[face]
			hi := float64(o.O.Len())
			anchor := [3]float64{float64(o.O.X), float64(o.O.Y), float64(o.O.Z)}
			for jj := 0; jj < n; jj++ {
				for ii := 0; ii < n; ii++ {
					// Node position in my tree frame.
					var pos [3]float64
					pos[t[0]] = anchor[t[0]] + hi*(a.K.B.Nodes[ii]+1)/2
					pos[t[1]] = anchor[t[1]] + hi*(a.K.B.Nodes[jj]+1)/2
					if face%2 == 0 {
						pos[ax] = anchor[ax]
					} else {
						pos[ax] = anchor[ax] + hi
					}
					ref := a.resolveNode(o, face, nOct, pos)
					fd.nodes[jj*n+ii] = ref
				}
			}
		}
	}
}

var faceNormalAxisDG = [6]int{0, 0, 1, 1, 2, 2}
var faceNormalSignDG = [6]float64{-1, 1, -1, 1, -1, 1}

// resolveNode maps one face-node position to the neighbor element and the
// 2-D evaluation point on its face.
func (a *Advection) resolveNode(o forest.Octant, face int, nOct forest.Octant, pos [3]float64) nodeRef {
	// Probe point for leaf lookup: step a quarter of a finest cell across
	// the face along the outward normal, and pull tangential coordinates
	// toward the face interior so nodes on the face perimeter do not land
	// in edge- or corner-adjacent leaves (which are outside the
	// face-ghost layer).
	probe := pos
	myAx := faceNormalAxisDG[face]
	probe[myAx] += faceNormalSignDG[face] * 0.25
	h := float64(o.O.Len())
	anchor := [3]float64{float64(o.O.X), float64(o.O.Y), float64(o.O.Z)}
	for _, ta := range tangentAxes[face] {
		lo := anchor[ta] + 0.25
		hi := anchor[ta] + h - 0.25
		if probe[ta] < lo {
			probe[ta] = lo
		}
		if probe[ta] > hi {
			probe[ta] = hi
		}
	}
	// Transform into the neighbor's tree frame if crossing trees.
	tpos := pos
	nTree := o.Tree
	if nOct.Tree != o.Tree {
		fc := a.F.Conn.ConnAt(o.Tree, face)
		tpos = fc.ApplyF(pos)
		probe = fc.ApplyF(probe)
		nTree = nOct.Tree
	}
	cell := forest.Octant{Tree: nTree, O: morton.Octant{
		X: clampCoord(probe[0]), Y: clampCoord(probe[1]), Z: clampCoord(probe[2]),
		Level: morton.MaxLevel}}
	idx, leaf, ok := a.findElem(cell)
	if !ok {
		panic(fmt.Sprintf("dg: no neighbor leaf at %v (elem %v face %d)", cell, o, face))
	}
	// Reference coordinates of the exact point within the neighbor leaf.
	lh := float64(leaf.O.Len())
	la := [3]float64{float64(leaf.O.X), float64(leaf.O.Y), float64(leaf.O.Z)}
	var ref [3]float64
	for d := 0; d < 3; d++ {
		ref[d] = clampRef(2*(tpos[d]-la[d])/lh - 1)
	}
	// The neighbor's face normal axis in its own frame.
	ax := myAx
	if nOct.Tree != o.Tree {
		ax = faceNormalAxisDG[a.F.Conn.ConnAt(o.Tree, face).NeighborFace()]
	}
	var side int8
	if ref[ax] > 0 {
		side = 1
	}
	t := tangentAxes[2*ax]
	return nodeRef{elem: idx, axis: int8(ax), side: side, pt: [2]float64{ref[t[0]], ref[t[1]]}}
}

func clampCoord(x float64) uint32 {
	i := int64(math.Floor(x))
	if i < 0 {
		i = 0
	}
	if i >= morton.RootLen {
		i = morton.RootLen - 1
	}
	return uint32(i)
}

// faceSlice extracts the n^2 nodal values of the given element face
// (lower tangent axis fastest).
func (a *Advection) faceSlice(u []float64, axis, side int8, out []float64) {
	n := a.K.N
	fix := 0
	if side == 1 {
		fix = n - 1
	}
	t := tangentAxes[2*axis]
	idx3 := func(c [3]int) int { return c[0] + n*(c[1]+n*c[2]) }
	k := 0
	var c [3]int
	c[axis] = fix
	for j := 0; j < n; j++ {
		c[t[1]] = j
		for i := 0; i < n; i++ {
			c[t[0]] = i
			out[k] = u[idx3(c)]
			k++
		}
	}
}

// updateGhostValues ships current element values to neighboring ranks
// (collective).
func (a *Advection) updateGhostValues(u []float64) {
	r := a.F.Rank()
	out := make([]sim.Payload, len(a.ghost.sendTo))
	for k, rk := range a.ghost.sendTo {
		idx := a.ghost.sendIdx[rk]
		buf := make([]float64, len(idx)*a.n3)
		for n, li := range idx {
			copy(buf[n*a.n3:(n+1)*a.n3], u[int(li)*a.n3:(int(li)+1)*a.n3])
		}
		out[k].F64 = buf
	}
	in := make([]sim.Payload, len(a.ghost.recvFrom))
	r.NeighborExchange(a.ghost.sendTo, out, a.ghost.recvFrom, in)
	for k, rk := range a.ghost.recvFrom {
		buf := in[k].F64
		for n, slot := range a.ghost.recvOff[rk] {
			copy(a.ghostU[int(slot)*a.n3:(int(slot)+1)*a.n3], buf[n*a.n3:(n+1)*a.n3])
		}
	}
}

// elemValues returns the nodal values of a combined-index element.
func (a *Advection) elemValues(u []float64, idx int32) []float64 {
	nl := a.F.NumLocal()
	if int(idx) < nl {
		return u[int(idx)*a.n3 : (int(idx)+1)*a.n3]
	}
	g := int(idx) - nl
	return a.ghostU[g*a.n3 : (g+1)*a.n3]
}

// RHS computes dU/dt into rhs (collective: one ghost update).
func (a *Advection) RHS(u, rhs []float64) {
	a.updateGhostValues(u)
	n := a.K.N
	leaves := a.F.Leaves()
	du := make([]float64, a.n3)
	fbuf := make([]float64, n*n)
	wEnd := a.K.B.Weights[0] // endpoint LGL weight
	for ei, o := range leaves {
		ue := u[ei*a.n3 : (ei+1)*a.n3]
		re := rhs[ei*a.n3 : (ei+1)*a.n3]
		h := float64(o.O.Len())
		vel := a.Vel[ei]
		// Volume term: -u . grad T.
		for i := range re {
			re[i] = 0
		}
		for d := 0; d < 3; d++ {
			if vel[d] == 0 {
				continue
			}
			a.K.DerivTensor(ue, du, d)
			s := vel[d] * 2 / h
			for i := range re {
				re[i] -= s * du[i]
			}
		}
		// Face terms.
		for face := 0; face < 6; face++ {
			ax := faceNormalAxisDG[face]
			un := vel[ax] * faceNormalSignDG[face]
			fd := &a.faces[ei][face]
			if un >= 0 && !fd.boundary {
				continue // outflow: upwind flux equals interior flux
			}
			side := int8(face % 2)
			a.faceSlice(ue, int8(ax), side, fbuf)
			lift := 1 / (wEnd * h / 2)
			t := tangentAxes[face]
			for jj := 0; jj < n; jj++ {
				for ii := 0; ii < n; ii++ {
					mine := fbuf[jj*n+ii]
					var text float64
					if fd.boundary {
						if un >= 0 {
							continue
						}
						text = a.Inflow
					} else {
						ref := fd.nodes[jj*n+ii]
						nv := a.elemValues(u, ref.elem)
						nfb := make([]float64, n*n)
						a.faceSlice(nv, ref.axis, ref.side, nfb)
						text = a.K.B.Eval2D(nfb, ref.pt[0], ref.pt[1])
					}
					// Upwind correction for inflow: -(un (Text - Tmine)).
					corr := -un * (text - mine) * lift
					var c [3]int
					c[ax] = 0
					if side == 1 {
						c[ax] = n - 1
					}
					c[t[0]] = ii
					c[t[1]] = jj
					re[c[0]+n*(c[1]+n*c[2])] += corr
				}
			}
		}
	}
}

// Low-storage five-stage fourth-order RK (Carpenter & Kennedy 1994).
var rkA = [5]float64{0,
	-567301805773.0 / 1357537059087.0,
	-2404267990393.0 / 2016746695238.0,
	-3550918686646.0 / 2091501179385.0,
	-1275806237668.0 / 842570457699.0}
var rkB = [5]float64{
	1432997174477.0 / 9575080441755.0,
	5161836677717.0 / 13612068292357.0,
	1720146321549.0 / 2090206949498.0,
	3134564353537.0 / 4481467310338.0,
	2277821191437.0 / 14882151754819.0}

// Step advances the solution by dt with the 5-stage RK4 (collective).
func (a *Advection) Step(dt float64) {
	for s := 0; s < 5; s++ {
		a.RHS(a.U, a.rhs)
		for i := range a.resid {
			a.resid[i] = rkA[s]*a.resid[i] + dt*a.rhs[i]
			a.U[i] += rkB[s] * a.resid[i]
		}
	}
}

// StableDt returns a CFL-limited time step (collective).
func (a *Advection) StableDt(cfl float64) float64 {
	local := math.Inf(1)
	for ei, o := range a.F.Leaves() {
		h := float64(o.O.Len())
		v := a.Vel[ei]
		um := math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
		if um == 0 {
			continue
		}
		dt := h / (um * float64((a.K.N-1)*(a.K.N-1)+1))
		if dt < local {
			local = dt
		}
	}
	return cfl * a.F.Rank().Allreduce(local, sim.OpMin)
}

// Indicator returns a per-element adaptation indicator (nodal range).
func (a *Advection) Indicator() []float64 {
	out := make([]float64, a.F.NumLocal())
	for ei := range out {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range a.U[ei*a.n3 : (ei+1)*a.n3] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		out[ei] = hi - lo
	}
	return out
}

// MassIntegral returns the global integral of the solution (collective),
// useful for tracking conservation.
func (a *Advection) MassIntegral() float64 {
	n := a.K.N
	var s float64
	for ei, o := range a.F.Leaves() {
		h := float64(o.O.Len())
		jac := h * h * h / 8
		ue := a.U[ei*a.n3 : (ei+1)*a.n3]
		for l := 0; l < n; l++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					w := a.K.B.Weights[i] * a.K.B.Weights[j] * a.K.B.Weights[l]
					s += w * jac * ue[i+n*(j+n*l)]
				}
			}
		}
	}
	return a.F.Rank().Allreduce(s, sim.OpSum)
}
