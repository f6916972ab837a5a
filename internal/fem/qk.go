package fem

import "math"

// Qk tensor-product tables for the higher-order (Q2) velocity element.
// The 27-node triquadratic element is the tensor cube of the 1-D
// quadratic Lagrange basis on {0, 1/2, 1}; nodes are numbered
// lexicographically, n = i + 3j + 9k with i, j, k in {0,1,2}, so the
// eight element corners sit at n = 2cx + 6cy + 18cz. Integration uses
// the 3-point Gauss rule per axis (exact through degree 5), which is the
// rule the sum-factorized kernels in sumfactor.go contract against.

// gauss3 holds the three-point Gauss abscissae on [0,1]; gaussW3 the
// matching weights (they sum to 1, so tensor weights carry the unit
// reference volume exactly like Quad8).
var (
	gauss3  = [3]float64{0.5 - 0.5*math.Sqrt(0.6), 0.5, 0.5 + 0.5*math.Sqrt(0.6)}
	gaussW3 = [3]float64{5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0}
)

// Q2Val1D evaluates the 1-D quadratic Lagrange function i (node at
// i/2) at x.
func Q2Val1D(i int, x float64) float64 {
	switch i {
	case 0:
		return (2*x-3)*x + 1
	case 1:
		return 4 * x * (1 - x)
	default:
		return (2*x - 1) * x
	}
}

// Q2Der1D evaluates the derivative of Q2Val1D.
func Q2Der1D(i int, x float64) float64 {
	switch i {
	case 0:
		return 4*x - 3
	case 1:
		return 4 - 8*x
	default:
		return 4*x - 1
	}
}

// q1Val1D is the 1-D linear Lagrange basis on {0,1} (the pressure
// space of the Taylor-Hood pair, evaluated at the 3-point rule).
func q1Val1D(i int, x float64) float64 {
	if i == 0 {
		return 1 - x
	}
	return x
}

// 1-D operator tables at the 3-point Gauss rule: value and
// reference-derivative matrices [q][i] plus their transposes [i][q].
// The derivative tables get the 1/h physical scaling per axis inside
// SumFactorKernels; the value tables are geometry-free and shared.
var (
	q2B, q2D, q2Bt, q2Dt [3][3]float64
	q1B                  [3][2]float64
)

// q2CornerNode maps z-order corner c (bit 0 = x, bit 1 = y, bit 2 = z,
// as in package mesh) to its 27-node lexicographic index.
var q2CornerNode = [8]int{0, 2, 6, 8, 18, 20, 24, 26}

// Q2CornerNode returns the 27-node index of z-order corner c.
func Q2CornerNode(c int) int { return q2CornerNode[c] }

// Q2NodeOffset returns the per-axis grid offsets (in half-edge units,
// each in {0,1,2}) of Q2 node n = i + 3j + 9k.
func Q2NodeOffset(n int) (i, j, k int) { return n % 3, (n / 3) % 3, n / 9 }

// QPoint27 is one point of the 3x3x3 Gauss rule with precomputed
// triquadratic shape data and the trilinear (pressure) values.
type QPoint27 struct {
	Xi   [3]float64
	W    float64
	N    [27]float64
	dNdX [27][3]float64 // gradient in reference coordinates
	P    [8]float64     // trilinear shape values (z-order corners)
}

// Quad27 is the 3x3x3 Gauss rule on the reference cube (weights sum
// to 1), point q = qx + 3qy + 9qz.
var Quad27 [27]QPoint27

// q1N27 caches the trilinear values at the 27 Gauss points for the
// sum-factorized pressure interpolation/test passes.
var q1N27 [27][8]float64

func init() {
	for q := 0; q < 3; q++ {
		for i := 0; i < 3; i++ {
			q2B[q][i] = Q2Val1D(i, gauss3[q])
			q2D[q][i] = Q2Der1D(i, gauss3[q])
			q2Bt[i][q] = q2B[q][i]
			q2Dt[i][q] = q2D[q][i]
		}
		q1B[q][0] = q1Val1D(0, gauss3[q])
		q1B[q][1] = q1Val1D(1, gauss3[q])
	}
	for qz := 0; qz < 3; qz++ {
		for qy := 0; qy < 3; qy++ {
			for qx := 0; qx < 3; qx++ {
				qi := qx + 3*qy + 9*qz
				p := &Quad27[qi]
				p.Xi = [3]float64{gauss3[qx], gauss3[qy], gauss3[qz]}
				p.W = gaussW3[qx] * gaussW3[qy] * gaussW3[qz]
				for n := 0; n < 27; n++ {
					i, j, k := Q2NodeOffset(n)
					bx, by, bz := q2B[qx][i], q2B[qy][j], q2B[qz][k]
					p.N[n] = bx * by * bz
					p.dNdX[n] = [3]float64{
						q2D[qx][i] * by * bz,
						bx * q2D[qy][j] * bz,
						bx * by * q2D[qz][k],
					}
				}
				for c := 0; c < 8; c++ {
					p.P[c] = q1B[qx][c&1] * q1B[qy][c>>1&1] * q1B[qz][c>>2&1]
				}
				q1N27[qi] = p.P
			}
		}
	}
}

// Q2StiffnessBrick returns the triquadratic scalar diffusion matrix
// K[a][b] = coef * Integral grad(phi_a) . grad(phi_b) dV on a brick
// with physical edge lengths h (the p-level smoother diagonal and the
// naive reference for the sum-factorized scalar apply).
func Q2StiffnessBrick(h [3]float64, coef float64) [27][27]float64 {
	var K [27][27]float64
	vol := h[0] * h[1] * h[2]
	for qi := range Quad27 {
		q := &Quad27[qi]
		w := coef * q.W * vol
		for a := 0; a < 27; a++ {
			for b := a; b < 27; b++ {
				var s float64
				for d := 0; d < 3; d++ {
					s += q.dNdX[a][d] / h[d] * q.dNdX[b][d] / h[d]
				}
				K[a][b] += w * s
			}
		}
	}
	for a := 0; a < 27; a++ {
		for b := 0; b < a; b++ {
			K[a][b] = K[b][a]
		}
	}
	return K
}

// Q2StokesKernels is the naive dense reference for the Q2-Q1
// Taylor-Hood element: the 81x81 unit-viscosity viscous block in
// strain-rate form and the 8x81 divergence coupling against the
// trilinear pressure basis. The inf-sup stable pair needs no
// Dohrmann-Bochev stabilization, so there is no Cs block. It exists
// for parity testing and as the throughput baseline the sum-factorized
// kernels are measured against; the hot path uses SumFactorKernels.
type Q2StokesKernels struct {
	H  [3]float64
	Av [81][81]float64 // strain-rate viscous block, unit viscosity
	Bd [8][81]float64  // Bd[a][3b+j] = -Integral psi_a d_j phi_b dV
}

// NewQ2StokesKernels precomputes the dense Q2 element matrices for a
// brick with physical edge lengths h.
func NewQ2StokesKernels(h [3]float64) *Q2StokesKernels {
	k := &Q2StokesKernels{H: h}
	vol := h[0] * h[1] * h[2]
	for qi := range Quad27 {
		q := &Quad27[qi]
		var g [27][3]float64
		for a := 0; a < 27; a++ {
			for d := 0; d < 3; d++ {
				g[a][d] = q.dNdX[a][d] / h[d]
			}
		}
		w := q.W * vol
		for a := 0; a < 27; a++ {
			for b := 0; b < 27; b++ {
				dot := g[a][0]*g[b][0] + g[a][1]*g[b][1] + g[a][2]*g[b][2]
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						v := g[a][j] * g[b][i]
						if i == j {
							v += dot
						}
						k.Av[3*a+i][3*b+j] += w * v
					}
				}
			}
		}
		for a := 0; a < 8; a++ {
			for b := 0; b < 27; b++ {
				for j := 0; j < 3; j++ {
					k.Bd[a][3*b+j] -= w * q.P[a] * g[b][j]
				}
			}
		}
	}
	return k
}

// Apply computes the action of the coupled Taylor-Hood element
// operator with element viscosity eta on the 108 nodal dof values xe
// (dof (node n, component c) at index 4n+c, c = 3 the pressure, read
// at the eight corner nodes only):
//
//	ye_v = eta Av xe_v + Bd^T xe_p
//	ye_p = Bd xe_v           (at corner nodes; zero elsewhere)
//
// One fused dense pass, the O(k^6) kernel sum factorization replaces.
func (k *Q2StokesKernels) Apply(eta float64, xe, ye *[108]float64) {
	var pe [8]float64
	for a := 0; a < 8; a++ {
		pe[a] = xe[4*q2CornerNode[a]+3]
	}
	for a := 0; a < 27; a++ {
		ra0, ra1, ra2 := &k.Av[3*a], &k.Av[3*a+1], &k.Av[3*a+2]
		var s0, s1, s2 float64
		for b := 0; b < 27; b++ {
			xb0, xb1, xb2 := xe[4*b], xe[4*b+1], xe[4*b+2]
			s0 += ra0[3*b]*xb0 + ra0[3*b+1]*xb1 + ra0[3*b+2]*xb2
			s1 += ra1[3*b]*xb0 + ra1[3*b+1]*xb1 + ra1[3*b+2]*xb2
			s2 += ra2[3*b]*xb0 + ra2[3*b+1]*xb1 + ra2[3*b+2]*xb2
		}
		s0, s1, s2 = eta*s0, eta*s1, eta*s2
		for p := 0; p < 8; p++ {
			pv := pe[p]
			s0 += k.Bd[p][3*a] * pv
			s1 += k.Bd[p][3*a+1] * pv
			s2 += k.Bd[p][3*a+2] * pv
		}
		ye[4*a], ye[4*a+1], ye[4*a+2] = s0, s1, s2
		ye[4*a+3] = 0
	}
	for a := 0; a < 8; a++ {
		row := &k.Bd[a]
		var sp float64
		for b := 0; b < 27; b++ {
			sp += row[3*b]*xe[4*b] + row[3*b+1]*xe[4*b+1] + row[3*b+2]*xe[4*b+2]
		}
		ye[4*q2CornerNode[a]+3] = sp
	}
}
