package fem

import (
	"math"
	"math/rand"
	"testing"
)

// Q2MassBrick returns the triquadratic consistent mass matrix scaled
// by coef.
func Q2MassBrick(h [3]float64, coef float64) [27][27]float64 {
	var M [27][27]float64
	vol := h[0] * h[1] * h[2]
	for qi := range Quad27 {
		q := &Quad27[qi]
		w := coef * q.W * vol
		for a := 0; a < 27; a++ {
			for b := 0; b < 27; b++ {
				M[a][b] += w * q.N[a] * q.N[b]
			}
		}
	}
	return M
}

func TestQ2BasisProperties(t *testing.T) {
	// Kronecker property at the 1-D nodes {0, 1/2, 1}.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v := Q2Val1D(i, float64(j)/2)
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(v-want) > 1e-14 {
				t.Errorf("l_%d at node %d = %v", i, j, v)
			}
		}
	}
	// Partition of unity and zero gradient sum at every Gauss point.
	for qi := range Quad27 {
		q := &Quad27[qi]
		var s float64
		var g [3]float64
		for n := 0; n < 27; n++ {
			s += q.N[n]
			for d := 0; d < 3; d++ {
				g[d] += q.dNdX[n][d]
			}
		}
		if math.Abs(s-1) > 1e-13 {
			t.Errorf("qp %d: shapes sum to %v", qi, s)
		}
		for d := 0; d < 3; d++ {
			if math.Abs(g[d]) > 1e-12 {
				t.Errorf("qp %d: gradient sum %v in axis %d", qi, g[d], d)
			}
		}
	}
}

func TestGauss3Exactness(t *testing.T) {
	// The 3-point rule is exact through degree 5 on [0,1].
	for p := 0; p <= 5; p++ {
		var s float64
		for q := 0; q < 3; q++ {
			s += gaussW3[q] * math.Pow(gauss3[q], float64(p))
		}
		want := 1 / float64(p+1)
		if math.Abs(s-want) > 1e-14 {
			t.Errorf("integral of x^%d = %v, want %v", p, s, want)
		}
	}
}

func TestQ2CornerNodeMatchesZOrder(t *testing.T) {
	for c := 0; c < 8; c++ {
		i, j, k := Q2NodeOffset(Q2CornerNode(c))
		if i != 2*(c&1) || j != 2*(c>>1&1) || k != 2*(c>>2&1) {
			t.Errorf("corner %d maps to offsets (%d,%d,%d)", c, i, j, k)
		}
	}
}

// TestSumFactorMatchesNaive is the element-level parity gate: the
// sum-factorized coupled apply must match the dense Q2 reference kernel
// on random data, on both cubic and strongly anisotropic bricks.
func TestSumFactorMatchesNaive(t *testing.T) {
	const seed = 20260808
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	for _, h := range [][3]float64{{0.25, 0.25, 0.25}, {0.5, 0.125, 0.03125}} {
		naive := NewQ2StokesKernels(h)
		sf := NewSumFactorKernels(h)
		var s SFScratch
		for trial := 0; trial < 20; trial++ {
			eta := math.Exp(rng.Float64()*8 - 4)
			var xe, yn, ys [108]float64
			for i := range xe {
				xe[i] = rng.NormFloat64()
			}
			naive.Apply(eta, &xe, &yn)
			sf.Apply(eta, &xe, &ys, &s)
			var num, den float64
			for i := range yn {
				d := yn[i] - ys[i]
				num += d * d
				den += yn[i] * yn[i]
			}
			if rel := math.Sqrt(num / den); rel > 1e-12 {
				t.Fatalf("h=%v eta=%.3g: sum-factorized vs naive rel diff %.3e", h, eta, rel)
			}
		}
	}
}

func TestSumFactorScalarAndMassMatchNaive(t *testing.T) {
	h := [3]float64{0.5, 0.25, 0.125}
	K := Q2StiffnessBrick(h, 1.7)
	M := Q2MassBrick(h, 1)
	sf := NewSumFactorKernels(h)
	var s SFScratch
	rng := rand.New(rand.NewSource(7))
	var xe, yk, ym [27]float64
	for i := range xe {
		xe[i] = rng.NormFloat64()
	}
	sf.ApplyScalar(1.7, &xe, &yk, &s)
	sf.ApplyMass(&xe, &ym, &s)
	for a := 0; a < 27; a++ {
		var sk, sm float64
		for b := 0; b < 27; b++ {
			sk += K[a][b] * xe[b]
			sm += M[a][b] * xe[b]
		}
		if math.Abs(sk-yk[a]) > 1e-11*(1+math.Abs(sk)) {
			t.Errorf("stiffness row %d: %v vs %v", a, yk[a], sk)
		}
		if math.Abs(sm-ym[a]) > 1e-12*(1+math.Abs(sm)) {
			t.Errorf("mass row %d: %v vs %v", a, ym[a], sm)
		}
	}
}

// TestQ2OperatorSymmetryAndDivergence checks the saddle-point symmetry
// of the coupled kernel (y1.x2 == y2.x1) and that the pressure rows of
// a linear velocity field u = (x, 0, 0) integrate -div u = -1 against
// the trilinear test functions: -vol/8 per corner.
func TestQ2OperatorSymmetryAndDivergence(t *testing.T) {
	h := [3]float64{0.5, 0.25, 0.125}
	sf := NewSumFactorKernels(h)
	var s SFScratch
	rng := rand.New(rand.NewSource(11))
	var x1, x2, y1, y2 [108]float64
	for i := range x1 {
		x1[i] = rng.NormFloat64()
		x2[i] = rng.NormFloat64()
	}
	// Inactive pressure slots must be zero for symmetry: the kernel
	// reads pressure at corner nodes only but writes all 108 slots.
	for n := 0; n < 27; n++ {
		i, j, k := Q2NodeOffset(n)
		if i%2+j%2+k%2 != 0 {
			x1[4*n+3] = 0
			x2[4*n+3] = 0
		}
	}
	sf.Apply(3.7, &x1, &y1, &s)
	sf.Apply(3.7, &x2, &y2, &s)
	var d12, d21 float64
	for i := range y1 {
		d12 += y1[i] * x2[i]
		d21 += y2[i] * x1[i]
	}
	if math.Abs(d12-d21) > 1e-10*(math.Abs(d12)+1) {
		t.Errorf("coupled kernel not symmetric: %v vs %v", d12, d21)
	}

	var xe, ye [108]float64
	for n := 0; n < 27; n++ {
		i, _, _ := Q2NodeOffset(n)
		xe[4*n] = float64(i) / 2 * h[0] // u = (x, 0, 0)
	}
	sf.Apply(1, &xe, &ye, &s)
	vol := h[0] * h[1] * h[2]
	for c := 0; c < 8; c++ {
		got := ye[4*Q2CornerNode(c)+3]
		if math.Abs(got+vol/8) > 1e-14 {
			t.Errorf("pressure row %d on linear field: %v, want %v", c, got, -vol/8)
		}
	}
}

// The two Q2 velocity-kernel benchmarks back the CI bench smoke: the
// dense O(k^6) reference apply against the sum-factorized O(k^4) apply
// on the same element.

func benchQ2Input() (*[108]float64, *[108]float64) {
	rng := rand.New(rand.NewSource(7))
	var xe, ye [108]float64
	for i := range xe {
		xe[i] = rng.NormFloat64()
	}
	return &xe, &ye
}

func BenchmarkQ2NaiveApply(b *testing.B) {
	k := NewQ2StokesKernels([3]float64{0.25, 0.25, 0.25})
	xe, ye := benchQ2Input()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Apply(1.3, xe, ye)
	}
}

func BenchmarkQ2SumFactorApply(b *testing.B) {
	k := NewSumFactorKernels([3]float64{0.25, 0.25, 0.25})
	var s SFScratch
	xe, ye := benchQ2Input()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Apply(1.3, xe, ye, &s)
	}
}
