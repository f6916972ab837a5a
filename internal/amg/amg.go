// Package amg implements algebraic multigrid, the stand-in for the
// hypre/BoomerAMG preconditioner used in the paper. The method is
// smoothed aggregation: a strength-of-connection graph, greedy
// aggregation, smoothed piecewise-constant prolongation, Galerkin RAP
// coarse operators, symmetric Gauss–Seidel smoothing, and a dense LU
// solve on the coarsest level. One V-cycle is used as the preconditioner
// for the velocity Poisson blocks of the Stokes system (paper §III).
//
// Two parallel forms are provided: Redundant (the default in the Stokes
// solver) replicates the gathered operator so every rank runs an
// identical hierarchy, keeping Krylov iteration counts independent of the
// rank count like the paper's global BoomerAMG; BlockJacobi builds the
// hierarchy per rank on the locally owned diagonal block, trading
// iteration growth for setup cost. See docs/ARCHITECTURE.md for how this
// substitution preserves the paper's observable behaviour.
package amg

import (
	"fmt"
	"math"

	"rhea/internal/la"
)

// Options controls setup.
type Options struct {
	Theta      float64 // strength threshold (default 0.08)
	Omega      float64 // prolongation smoothing damping; 0 = auto 4/(3 rho)
	CoarseSize int     // stop coarsening at or below this size (default 32)
	MaxLevels  int     // hierarchy depth cap (default 25)
	PreSmooth  int     // smoothing sweeps before coarse correction (default 1)
	PostSmooth int     // sweeps after (default 1)
}

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 0.08
	}
	if o.CoarseSize == 0 {
		o.CoarseSize = 32
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = 25
	}
	if o.PreSmooth == 0 {
		o.PreSmooth = 1
	}
	if o.PostSmooth == 0 {
		o.PostSmooth = 1
	}
	return o
}

type level struct {
	A    *la.CSR
	P    *la.CSR // prolongation to this level's fine grid (nil on finest)
	R    *la.CSR // restriction (P^T)
	diag []float64
	x, b []float64 // work vectors for this level
	r    []float64
}

// Hierarchy is an assembled AMG preconditioner.
type Hierarchy struct {
	opts   Options
	levels []*level
	// coarse dense factorization
	lu               []float64
	piv              []int
	nc               int
	coarseB, coarseX []float64
}

// Setup builds the hierarchy for A (serial, symmetric).
func Setup(A *la.CSR, opts Options) *Hierarchy {
	o := opts.withDefaults()
	h := &Hierarchy{opts: o}
	cur := A
	for len(h.levels) < o.MaxLevels && cur.N > o.CoarseSize {
		lv := &level{A: cur, diag: cur.Diag(),
			x: make([]float64, cur.N), b: make([]float64, cur.N), r: make([]float64, cur.N)}
		h.levels = append(h.levels, lv)
		agg, nagg := aggregate(cur, o.Theta)
		if nagg == 0 || nagg >= cur.N {
			// No coarsening progress: drop this level marker and let the
			// current matrix become the dense-solved coarsest level.
			h.levels = h.levels[:len(h.levels)-1]
			break
		}
		P := tentativeProlongation(agg, cur.N, nagg)
		P = smoothProlongation(cur, lv.diag, P, o.Omega)
		R := transpose(P)
		lv.P, lv.R = P, R
		cur = tripleProduct(R, cur, P)
	}
	// Coarsest level: dense LU.
	lvc := &level{A: cur, diag: cur.Diag(),
		x: make([]float64, cur.N), b: make([]float64, cur.N), r: make([]float64, cur.N)}
	h.levels = append(h.levels, lvc)
	h.nc = cur.N
	h.lu, h.piv = denseLU(cur)
	h.coarseB = make([]float64, cur.N)
	h.coarseX = make([]float64, cur.N)
	return h
}

// NumLevels returns the hierarchy depth.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// OperatorComplexity is sum of nnz over levels divided by fine nnz.
func (h *Hierarchy) OperatorComplexity() float64 {
	if len(h.levels) == 0 || h.levels[0].A.NNZ() == 0 {
		return 1
	}
	var s float64
	for _, lv := range h.levels {
		s += float64(lv.A.NNZ())
	}
	return s / float64(h.levels[0].A.NNZ())
}

// GridComplexity is sum of unknowns over levels divided by fine unknowns.
func (h *Hierarchy) GridComplexity() float64 {
	if len(h.levels) == 0 || h.levels[0].A.N == 0 {
		return 1
	}
	var s float64
	for _, lv := range h.levels {
		s += float64(lv.A.N)
	}
	return s / float64(h.levels[0].A.N)
}

// LevelSizes returns the unknown count per level.
func (h *Hierarchy) LevelSizes() []int {
	out := make([]int, len(h.levels))
	for i, lv := range h.levels {
		out[i] = lv.A.N
	}
	return out
}

// Cycle performs one V-cycle on b with zero initial guess, writing the
// result to x (len = fine N). With symmetric smoothing this defines an
// SPD operator, safe inside CG/MINRES.
func (h *Hierarchy) Cycle(b, x []float64) {
	copy(h.levels[0].b, b)
	h.vcycle(0)
	copy(x, h.levels[0].x)
}

func (h *Hierarchy) vcycle(li int) {
	lv := h.levels[li]
	if li == len(h.levels)-1 {
		h.coarseSolve(lv.b, lv.x)
		return
	}
	// Pre-smooth with zero initial guess.
	for i := range lv.x {
		lv.x[i] = 0
	}
	for s := 0; s < h.opts.PreSmooth; s++ {
		symGS(lv.A, lv.diag, lv.b, lv.x)
	}
	// Residual and restriction.
	lv.A.Apply(lv.x, lv.r)
	for i := range lv.r {
		lv.r[i] = lv.b[i] - lv.r[i]
	}
	next := h.levels[li+1]
	spmv(lv.R, lv.r, next.b)
	h.vcycle(li + 1)
	// Prolongate and correct.
	spmvAdd(lv.P, next.x, lv.x)
	for s := 0; s < h.opts.PostSmooth; s++ {
		symGS(lv.A, lv.diag, lv.b, lv.x)
	}
}

func (h *Hierarchy) coarseSolve(b, x []float64) {
	copy(h.coarseB, b)
	luSolve(h.lu, h.piv, h.nc, h.coarseB)
	copy(x, h.coarseB)
}

// symGS performs one symmetric Gauss–Seidel sweep (forward then backward)
// on A x = b, updating x in place.
func symGS(A *la.CSR, diag, b, x []float64) {
	n := A.N
	for i := 0; i < n; i++ {
		if diag[i] == 0 {
			continue
		}
		s := b[i]
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			j := A.ColIdx[k]
			if int(j) != i {
				s -= A.Vals[k] * x[j]
			}
		}
		x[i] = s / diag[i]
	}
	for i := n - 1; i >= 0; i-- {
		if diag[i] == 0 {
			continue
		}
		s := b[i]
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			j := A.ColIdx[k]
			if int(j) != i {
				s -= A.Vals[k] * x[j]
			}
		}
		x[i] = s / diag[i]
	}
}

// aggregate performs greedy strength-based aggregation. It returns the
// aggregate id per node (-1 for none, folded into singletons) and the
// aggregate count.
func aggregate(A *la.CSR, theta float64) ([]int32, int) {
	n := A.N
	diag := A.Diag()
	// Strong neighbor test.
	strong := func(i int, k int32) bool {
		j := A.ColIdx[k]
		if int(j) == i {
			return false
		}
		v := A.Vals[k]
		return v*v > theta*theta*math.Abs(diag[i]*diag[j])
	}
	agg := make([]int32, n)
	for i := range agg {
		agg[i] = -1
	}
	nagg := 0
	// Phase 1: roots with fully unaggregated strong neighborhoods.
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		ok := true
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			if strong(i, k) && agg[A.ColIdx[k]] >= 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		hasStrong := false
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			if strong(i, k) {
				hasStrong = true
				break
			}
		}
		if !hasStrong {
			continue // isolated node: handled in phase 3
		}
		id := int32(nagg)
		nagg++
		agg[i] = id
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			if strong(i, k) {
				agg[A.ColIdx[k]] = id
			}
		}
	}
	// Phase 2: attach remaining nodes to a strongly connected aggregate.
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			if strong(i, k) && agg[A.ColIdx[k]] >= 0 {
				agg[i] = agg[A.ColIdx[k]]
				break
			}
		}
	}
	// Phase 3: singletons for whatever is left (isolated/Dirichlet rows).
	for i := 0; i < n; i++ {
		if agg[i] < 0 {
			agg[i] = int32(nagg)
			nagg++
		}
	}
	return agg, nagg
}

// tentativeProlongation builds the piecewise-constant prolongation from
// the aggregation.
func tentativeProlongation(agg []int32, n, nagg int) *la.CSR {
	P := &la.CSR{N: n}
	P.RowPtr = make([]int32, n+1)
	P.ColIdx = make([]int32, n)
	P.Vals = make([]float64, n)
	for i := 0; i < n; i++ {
		P.RowPtr[i+1] = int32(i + 1)
		P.ColIdx[i] = agg[i]
		P.Vals[i] = 1
	}
	return P
}

// smoothProlongation computes P = (I - omega D^-1 A) P0. If omega is 0 a
// damping of 4/(3 rho(D^-1 A)) is estimated by power iteration.
func smoothProlongation(A *la.CSR, diag []float64, P0 *la.CSR, omega float64) *la.CSR {
	if omega == 0 {
		rho := estimateRho(A, diag, 10)
		if rho <= 0 {
			rho = 2
		}
		omega = 4.0 / (3.0 * rho)
	}
	// S = -omega D^-1 A with identity added on the diagonal.
	S := &la.CSR{N: A.N, RowPtr: make([]int32, A.N+1)}
	S.ColIdx = make([]int32, 0, A.NNZ())
	S.Vals = make([]float64, 0, A.NNZ())
	for i := 0; i < A.N; i++ {
		di := diag[i]
		hasDiag := false
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			j := A.ColIdx[k]
			v := 0.0
			if di != 0 {
				v = -omega * A.Vals[k] / di
			}
			if int(j) == i {
				v += 1
				hasDiag = true
			}
			S.ColIdx = append(S.ColIdx, j)
			S.Vals = append(S.Vals, v)
		}
		if !hasDiag {
			S.ColIdx = append(S.ColIdx, int32(i))
			S.Vals = append(S.Vals, 1)
		}
		S.RowPtr[i+1] = int32(len(S.ColIdx))
	}
	return matmul(S, P0)
}

// estimateRho estimates the spectral radius of D^-1 A by power iteration.
func estimateRho(A *la.CSR, diag []float64, iters int) float64 {
	n := A.N
	if n == 0 {
		return 1
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 + 0.01*float64(i%7)
	}
	var lam float64
	for it := 0; it < iters; it++ {
		A.Apply(x, y)
		var nrm float64
		for i := range y {
			if diag[i] != 0 {
				y[i] /= diag[i]
			}
			nrm += y[i] * y[i]
		}
		nrm = math.Sqrt(nrm)
		if nrm == 0 {
			return 1
		}
		lam = nrm
		for i := range x {
			x[i] = y[i] / nrm
		}
	}
	return lam
}

// transpose returns B = A^T. The number of columns is inferred as the max
// column index + 1.
func transpose(A *la.CSR) *la.CSR {
	ncol := 0
	for _, j := range A.ColIdx {
		if int(j)+1 > ncol {
			ncol = int(j) + 1
		}
	}
	B := &la.CSR{N: ncol, RowPtr: make([]int32, ncol+1)}
	for _, j := range A.ColIdx {
		B.RowPtr[j+1]++
	}
	for i := 0; i < ncol; i++ {
		B.RowPtr[i+1] += B.RowPtr[i]
	}
	B.ColIdx = make([]int32, len(A.ColIdx))
	B.Vals = make([]float64, len(A.Vals))
	pos := make([]int32, ncol)
	copy(pos, B.RowPtr[:ncol])
	for i := 0; i < A.N; i++ {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			j := A.ColIdx[k]
			B.ColIdx[pos[j]] = int32(i)
			B.Vals[pos[j]] = A.Vals[k]
			pos[j]++
		}
	}
	return B
}

// matmul computes C = A B (SpGEMM with a dense accumulator row).
func matmul(A, B *la.CSR) *la.CSR {
	ncol := 0
	for _, j := range B.ColIdx {
		if int(j)+1 > ncol {
			ncol = int(j) + 1
		}
	}
	C := &la.CSR{N: A.N, RowPtr: make([]int32, A.N+1)}
	acc := make([]float64, ncol)
	marker := make([]int32, ncol)
	for i := range marker {
		marker[i] = -1
	}
	var cols []int32
	for i := 0; i < A.N; i++ {
		cols = cols[:0]
		for ka := A.RowPtr[i]; ka < A.RowPtr[i+1]; ka++ {
			j := A.ColIdx[ka]
			av := A.Vals[ka]
			for kb := B.RowPtr[j]; kb < B.RowPtr[j+1]; kb++ {
				c := B.ColIdx[kb]
				if marker[c] != int32(i) {
					marker[c] = int32(i)
					acc[c] = 0
					cols = append(cols, c)
				}
				acc[c] += av * B.Vals[kb]
			}
		}
		for _, c := range cols {
			C.ColIdx = append(C.ColIdx, c)
			C.Vals = append(C.Vals, acc[c])
		}
		C.RowPtr[i+1] = int32(len(C.ColIdx))
	}
	return C
}

// tripleProduct computes R A P (Galerkin coarse operator).
func tripleProduct(R, A, P *la.CSR) *la.CSR {
	return matmul(matmul(R, A), P)
}

// spmv computes y = A x into y.
func spmv(A *la.CSR, x, y []float64) { A.Apply(x, y) }

// spmvAdd computes y += A x.
func spmvAdd(A *la.CSR, x, y []float64) {
	for i := 0; i < A.N; i++ {
		var s float64
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			s += A.Vals[k] * x[A.ColIdx[k]]
		}
		y[i] += s
	}
}

// denseLU factorizes the (small) coarse matrix with partial pivoting.
func denseLU(A *la.CSR) ([]float64, []int) {
	n := A.N
	lu := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			lu[i*n+int(A.ColIdx[k])] = A.Vals[k]
		}
	}
	piv := make([]int, n)
	for col := 0; col < n; col++ {
		// Pivot.
		p, best := col, math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu[r*n+col]); a > best {
				p, best = r, a
			}
		}
		piv[col] = p
		if p != col {
			for c := 0; c < n; c++ {
				lu[col*n+c], lu[p*n+c] = lu[p*n+c], lu[col*n+c]
			}
		}
		d := lu[col*n+col]
		if d == 0 {
			lu[col*n+col] = 1e-300 // singular (e.g. all-Dirichlet block); keep going
			d = lu[col*n+col]
		}
		for r := col + 1; r < n; r++ {
			f := lu[r*n+col] / d
			lu[r*n+col] = f
			for c := col + 1; c < n; c++ {
				lu[r*n+c] -= f * lu[col*n+c]
			}
		}
	}
	return lu, piv
}

// luSolve solves in place using the factors from denseLU.
func luSolve(lu []float64, piv []int, n int, b []float64) {
	for i := 0; i < n; i++ {
		if piv[i] != i {
			b[i], b[piv[i]] = b[piv[i]], b[i]
		}
		for j := 0; j < i; j++ {
			b[i] -= lu[i*n+j] * b[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			b[i] -= lu[i*n+j] * b[j]
		}
		b[i] /= lu[i*n+i]
	}
}

// String summarizes the hierarchy.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("amg: %d levels, sizes %v, opC %.2f", h.NumLevels(), h.LevelSizes(), h.OperatorComplexity())
}

// BlockJacobi wraps a per-rank AMG V-cycle on the locally owned diagonal
// block of a distributed matrix as a preconditioner Operator: the
// parallel preconditioner used for the velocity Poisson blocks.
type BlockJacobi struct {
	H *Hierarchy
}

// NewBlockJacobi builds the local hierarchy from the distributed matrix.
func NewBlockJacobi(A *la.Mat, opts Options) *BlockJacobi {
	return &BlockJacobi{H: Setup(A.LocalCSR(), opts)}
}

// Apply runs one V-cycle on the local block: y = M^-1 x.
func (b *BlockJacobi) Apply(x, y *la.Vec) {
	b.H.Cycle(x.Data, y.Data)
}
