package amg

import (
	"math"
	"math/rand"
	"testing"

	"rhea/internal/la"
)

// poisson3D builds the standard 7-point Laplacian on an n^3 grid with
// homogeneous Dirichlet conditions folded in, optionally with a variable
// coefficient field.
func poisson3D(n int, coef func(i, j, k int) float64) *la.CSR {
	if coef == nil {
		coef = func(int, int, int) float64 { return 1 }
	}
	N := n * n * n
	id := func(i, j, k int) int { return i + n*(j+n*k) }
	c := &la.CSR{N: N, RowPtr: make([]int32, N+1)}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				row := id(i, j, k)
				cc := coef(i, j, k)
				type e struct {
					col int
					v   float64
				}
				var es []e
				var diag float64
				add := func(ii, jj, kk int) {
					w := (cc + coef(clamp(ii, n), clamp(jj, n), clamp(kk, n))) / 2
					diag += w
					if ii >= 0 && ii < n && jj >= 0 && jj < n && kk >= 0 && kk < n {
						es = append(es, e{id(ii, jj, kk), -w})
					}
				}
				add(i-1, j, k)
				add(i+1, j, k)
				add(i, j-1, k)
				add(i, j+1, k)
				add(i, j, k-1)
				add(i, j, k+1)
				es = append(es, e{row, diag})
				for _, x := range es {
					c.ColIdx = append(c.ColIdx, int32(x.col))
					c.Vals = append(c.Vals, x.v)
				}
				c.RowPtr[row+1] = int32(len(c.ColIdx))
			}
		}
	}
	return c
}

func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func residualNorm(A *la.CSR, b, x []float64) float64 {
	r := make([]float64, A.N)
	A.Apply(x, r)
	var s float64
	for i := range r {
		d := b[i] - r[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestVCycleReducesResidual(t *testing.T) {
	A := poisson3D(10, nil)
	b := make([]float64, A.N)
	rng := rand.New(rand.NewSource(1))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	h := Setup(A, Options{})
	x := make([]float64, A.N)
	h.Cycle(b, x)
	r1 := residualNorm(A, b, x)
	r0 := residualNorm(A, b, make([]float64, A.N))
	if r1 >= 0.5*r0 {
		t.Fatalf("one V-cycle reduced residual only %v -> %v", r0, r1)
	}
}

// Stationary AMG iteration must converge fast: solve to 1e-8 in a
// modest number of cycles.
func TestStationaryConvergence(t *testing.T) {
	A := poisson3D(12, nil)
	xs := make([]float64, A.N)
	for i := range xs {
		xs[i] = math.Sin(float64(i))
	}
	b := make([]float64, A.N)
	A.Apply(xs, b)
	h := Setup(A, Options{})
	x := make([]float64, A.N)
	r := make([]float64, A.N)
	dx := make([]float64, A.N)
	r0 := residualNorm(A, b, x)
	cycles := 0
	for ; cycles < 60; cycles++ {
		A.Apply(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		h.Cycle(r, dx)
		for i := range x {
			x[i] += dx[i]
		}
		if residualNorm(A, b, x) < 1e-8*r0 {
			break
		}
	}
	if cycles >= 60 {
		t.Fatalf("stationary AMG did not converge in 60 cycles (res %v)", residualNorm(A, b, x)/r0)
	}
	if cycles > 30 {
		t.Errorf("AMG needed %d cycles; hierarchy is weak", cycles)
	}
}

// The iteration count must be roughly independent of problem size
// (algorithmic scalability — the property Fig 2 depends on).
func TestCycleCountMeshIndependent(t *testing.T) {
	count := func(n int) int {
		A := poisson3D(n, nil)
		b := make([]float64, A.N)
		for i := range b {
			b[i] = float64(i%5) - 2
		}
		h := Setup(A, Options{})
		x := make([]float64, A.N)
		r := make([]float64, A.N)
		dx := make([]float64, A.N)
		r0 := residualNorm(A, b, x)
		for c := 1; c <= 100; c++ {
			A.Apply(x, r)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			h.Cycle(r, dx)
			for i := range x {
				x[i] += dx[i]
			}
			if residualNorm(A, b, x) < 1e-6*r0 {
				return c
			}
		}
		return 101
	}
	c8, c16 := count(8), count(16)
	if c16 > 2*c8+4 {
		t.Errorf("cycle count grows with size: n=8 takes %d, n=16 takes %d", c8, c16)
	}
}

func TestVariableCoefficient(t *testing.T) {
	// 6 orders of magnitude viscosity jump, as in the paper's mantle.
	coef := func(i, j, k int) float64 {
		if k > 6 {
			return 1e6
		}
		return 1
	}
	A := poisson3D(10, coef)
	b := make([]float64, A.N)
	for i := range b {
		b[i] = 1
	}
	h := Setup(A, Options{})
	x := make([]float64, A.N)
	r := make([]float64, A.N)
	dx := make([]float64, A.N)
	r0 := residualNorm(A, b, x)
	cycles := 0
	for ; cycles < 80; cycles++ {
		A.Apply(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		h.Cycle(r, dx)
		for i := range x {
			x[i] += dx[i]
		}
		if residualNorm(A, b, x) < 1e-8*r0 {
			break
		}
	}
	if cycles >= 80 {
		t.Fatalf("AMG failed on variable coefficients (res %v)", residualNorm(A, b, x)/r0)
	}
}

func TestComplexities(t *testing.T) {
	A := poisson3D(12, nil)
	h := Setup(A, Options{})
	if h.NumLevels() < 2 {
		t.Fatalf("no coarsening: %d levels", h.NumLevels())
	}
	if oc := h.OperatorComplexity(); oc > 3.5 {
		t.Errorf("operator complexity %v too high", oc)
	}
	sizes := h.LevelSizes()
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			t.Errorf("level %d not coarser: %v", i, sizes)
		}
	}
}

func TestDenseLU(t *testing.T) {
	// Random well-conditioned system.
	n := 20
	rng := rand.New(rand.NewSource(7))
	A := &la.CSR{N: n, RowPtr: make([]int32, n+1)}
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(n)
			}
			dense[i*n+j] = v
			A.ColIdx = append(A.ColIdx, int32(j))
			A.Vals = append(A.Vals, v)
		}
		A.RowPtr[i+1] = int32(len(A.Vals))
	}
	lu, piv := denseLU(A)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += dense[i*n+j] * xs[j]
		}
	}
	luSolve(lu, piv, n, b)
	for i := range xs {
		if math.Abs(b[i]-xs[i]) > 1e-9 {
			t.Fatalf("lu solve wrong at %d: %v vs %v", i, b[i], xs[i])
		}
	}
}

func TestTransposeAndMatmul(t *testing.T) {
	// A = [[1,2],[0,3],[4,0]] (3x2), B = [[1,1],[2,0]] (2x2).
	A := &la.CSR{N: 3,
		RowPtr: []int32{0, 2, 3, 4},
		ColIdx: []int32{0, 1, 1, 0},
		Vals:   []float64{1, 2, 3, 4}}
	At := transpose(A)
	if At.N != 2 {
		t.Fatalf("transpose N=%d", At.N)
	}
	// At = [[1,0,4],[2,3,0]]
	x := []float64{1, 2, 3}
	y := make([]float64, 2)
	At.Apply(x, y)
	if y[0] != 13 || y[1] != 8 {
		t.Fatalf("transpose apply = %v", y)
	}
	B := &la.CSR{N: 2,
		RowPtr: []int32{0, 2, 3},
		ColIdx: []int32{0, 1, 0},
		Vals:   []float64{1, 1, 2}}
	C := matmul(A, B) // 3x2: [[5,1],[6,0],[4,4]]
	xc := []float64{1, 1}
	yc := make([]float64, 3)
	C.Apply(xc, yc)
	if yc[0] != 6 || yc[1] != 6 || yc[2] != 8 {
		t.Fatalf("matmul apply = %v", yc)
	}
}

func TestSymGSConvergesOnSmallSystem(t *testing.T) {
	A := poisson3D(4, nil)
	b := make([]float64, A.N)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, A.N)
	diag := A.Diag()
	r0 := residualNorm(A, b, x)
	for i := 0; i < 200; i++ {
		symGS(A, diag, b, x)
	}
	if r := residualNorm(A, b, x); r > 1e-6*r0 {
		t.Fatalf("symGS stalled: %v", r/r0)
	}
}

func TestDirichletIdentityRows(t *testing.T) {
	// System with identity rows interspersed (as produced by BC
	// elimination) must still be handled.
	A := poisson3D(6, nil)
	// Overwrite a few rows with identity.
	for i := 0; i < A.N; i += 17 {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			if int(A.ColIdx[k]) == i {
				A.Vals[k] = 1
			} else {
				A.Vals[k] = 0
			}
		}
	}
	b := make([]float64, A.N)
	for i := range b {
		b[i] = float64(i % 3)
	}
	h := Setup(A, Options{})
	x := make([]float64, A.N)
	h.Cycle(b, x)
	if residualNorm(A, b, x) >= residualNorm(A, b, make([]float64, A.N)) {
		t.Fatal("V-cycle did not reduce residual with identity rows present")
	}
}

func BenchmarkVCyclePoisson32(b *testing.B) {
	A := poisson3D(32, nil)
	h := Setup(A, Options{})
	rhs := make([]float64, A.N)
	for i := range rhs {
		rhs[i] = float64(i % 7)
	}
	x := make([]float64, A.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Cycle(rhs, x)
	}
}

func BenchmarkSetupPoisson32(b *testing.B) {
	A := poisson3D(32, nil)
	for i := 0; i < b.N; i++ {
		Setup(A, Options{})
	}
}
