package fem

import "rhea/internal/mesh"

// Sum-factorized Q2 kernels: the element apply is three 1-D tensor
// contractions per pass instead of a dense matrix-vector product. For
// polynomial degree k the dense element matrix costs O(k^6) per apply
// while the factored interpolate-to-quadrature / scale-by-geometry /
// test-function-contraction structure costs O(k^4) — the classic
// matrix-free speed win for high-order elements (Heister et al., High
// Accuracy Mantle Convection II). At k = 2 the raw flop gap is modest,
// so two further tensor-product tricks carry the throughput target:
// every stage contracts all three velocity components per call (one
// table load, three independent dependency chains), and the 1-D
// operators are applied in even-odd form — the symmetric Gauss points
// and node layout make the value tables persymmetric
// (T[2-q][2-i] = T[q][i]) and the derivative tables anti-persymmetric
// (T[2-q][2-i] = -T[q][i]), so a 3-value contraction costs 5 (values)
// or 4 (derivatives) multiplications instead of 9 once inputs are
// split into even/odd parts. The working set is a handful of 3x3
// tables and 27-entry pipelines living in registers and L1, versus
// the 52 KB dense block of the naive kernel.
//
// Elements are axis-aligned bricks (J = diag(h)), which is the only
// geometry the Q2 path supports: the 1/h[d] physical scaling folds
// directly into the per-axis 1-D derivative tables.

// SumFactorKernels holds the per-axis 1-D operators of one brick size
// h: physical derivative tables (reference derivative scaled by 1/h)
// with their transposes and even-odd forms, and the tensor Gauss
// weights scaled by the element volume. Value tables are geometry-free
// package data (q2B, q2Bt). The struct is immutable after construction
// and shared across every element of an octree level; all mutable
// state lives in the caller-owned SFScratch.
type SumFactorKernels struct {
	H             [3]float64
	dx, dy, dz    [3][3]float64 // [q][i]: d/dx_axis of 1-D basis i at Gauss q
	dxt, dyt, dzt [3][3]float64 // transposes [i][q]
	wq            [27]float64   // tensor Gauss weight x element volume

	bS, btS                         eoSym
	dxA, dyA, dzA, dxtA, dytA, dztA eoAnti
}

// eoSym is the even-odd form of a persymmetric 3x3 operator:
// y0 = u + g o, y2 = u - g o, y1 = m10 e + m11 x1, with e = x0+x2,
// o = x0-x2, u = a e + m01 x1.
type eoSym struct{ a, g, m01, m10, m11 float64 }

// eoAnti is the even-odd form of an anti-persymmetric 3x3 operator:
// y0 = g o + u, y2 = g o - u, y1 = m10 o, with u = a e + m01 x1.
type eoAnti struct{ a, g, m01, m10 float64 }

func newEOSym(T *[3][3]float64) eoSym {
	return eoSym{a: (T[0][0] + T[0][2]) / 2, g: (T[0][0] - T[0][2]) / 2,
		m01: T[0][1], m10: T[1][0], m11: T[1][1]}
}

func newEOAnti(T *[3][3]float64) eoAnti {
	return eoAnti{a: (T[0][0] + T[0][2]) / 2, g: (T[0][0] - T[0][2]) / 2,
		m01: T[0][1], m10: T[1][0]}
}

// NewSumFactorKernels precomputes the 1-D tables for a brick with
// physical edge lengths h.
func NewSumFactorKernels(h [3]float64) *SumFactorKernels {
	k := &SumFactorKernels{H: h}
	for q := 0; q < 3; q++ {
		for i := 0; i < 3; i++ {
			k.dx[q][i] = q2D[q][i] / h[0]
			k.dy[q][i] = q2D[q][i] / h[1]
			k.dz[q][i] = q2D[q][i] / h[2]
			k.dxt[i][q] = k.dx[q][i]
			k.dyt[i][q] = k.dy[q][i]
			k.dzt[i][q] = k.dz[q][i]
		}
	}
	vol := h[0] * h[1] * h[2]
	for qz := 0; qz < 3; qz++ {
		for qy := 0; qy < 3; qy++ {
			for qx := 0; qx < 3; qx++ {
				k.wq[qx+3*qy+9*qz] = gaussW3[qx] * gaussW3[qy] * gaussW3[qz] * vol
			}
		}
	}
	k.bS, k.btS = newEOSym(&q2B), newEOSym(&q2Bt)
	k.dxA, k.dyA, k.dzA = newEOAnti(&k.dx), newEOAnti(&k.dy), newEOAnti(&k.dz)
	k.dxtA, k.dytA, k.dztA = newEOAnti(&k.dxt), newEOAnti(&k.dyt), newEOAnti(&k.dzt)
	return k
}

// SFScratch is the fixed-size workspace of the sum-factorized applies:
// gradient/flux planes and stage pipelines. One instance per operator
// keeps the hot loop allocation-free while the kernels stay shared and
// immutable.
type SFScratch struct {
	g          [3][3][27]float64 // per component x direction: gradients, then flux
	u, v, w    [3][27]float64    // 3-component stage pipelines of the coupled apply
	t0, t1, t2 [27]float64
	dv         [27]float64
}

// sfX contracts a 3x3 1-D operator along the x (stride-1) tensor axis
// for one field: out[q+3j+9k] = sum_i T[q][i] in[i+3j+9k]. The
// single-field sfX/sfY/sfZ helpers carry the scalar and mass applies;
// the coupled apply uses the 3-wide even-odd stages below.
func sfX(T *[3][3]float64, in, out *[27]float64) {
	t00, t01, t02 := T[0][0], T[0][1], T[0][2]
	t10, t11, t12 := T[1][0], T[1][1], T[1][2]
	t20, t21, t22 := T[2][0], T[2][1], T[2][2]
	for b := 0; b < 27; b += 3 {
		x0, x1, x2 := in[b], in[b+1], in[b+2]
		out[b] = t00*x0 + t01*x1 + t02*x2
		out[b+1] = t10*x0 + t11*x1 + t12*x2
		out[b+2] = t20*x0 + t21*x1 + t22*x2
	}
}

// sfY contracts along the y (stride-3) tensor axis.
func sfY(T *[3][3]float64, in, out *[27]float64) {
	t00, t01, t02 := T[0][0], T[0][1], T[0][2]
	t10, t11, t12 := T[1][0], T[1][1], T[1][2]
	t20, t21, t22 := T[2][0], T[2][1], T[2][2]
	for k := 0; k < 27; k += 9 {
		for i := k; i < k+3; i++ {
			x0, x1, x2 := in[i], in[i+3], in[i+6]
			out[i] = t00*x0 + t01*x1 + t02*x2
			out[i+3] = t10*x0 + t11*x1 + t12*x2
			out[i+6] = t20*x0 + t21*x1 + t22*x2
		}
	}
}

// sfZ contracts along the z (stride-9) tensor axis.
func sfZ(T *[3][3]float64, in, out *[27]float64) {
	t00, t01, t02 := T[0][0], T[0][1], T[0][2]
	t10, t11, t12 := T[1][0], T[1][1], T[1][2]
	t20, t21, t22 := T[2][0], T[2][1], T[2][2]
	for i := 0; i < 9; i++ {
		x0, x1, x2 := in[i], in[i+9], in[i+18]
		out[i] = t00*x0 + t01*x1 + t02*x2
		out[i+9] = t10*x0 + t11*x1 + t12*x2
		out[i+18] = t20*x0 + t21*x1 + t22*x2
	}
}

// sfX3EOBoth applies the value operator S and derivative operator A
// along x to all three components at once, sharing one even-odd
// split of the inputs: outS gets values, outA gets derivatives.
func sfX3EOBoth(S *eoSym, A *eoAnti, in, outS, outA *[3][27]float64) {
	sa, sg, s01, s10, s11 := S.a, S.g, S.m01, S.m10, S.m11
	aa, ag, a01, a10 := A.a, A.g, A.m01, A.m10
	for c := 0; c < 3; c++ {
		inc, os, oa := &in[c], &outS[c], &outA[c]
		for b := 0; b < 27; b += 3 {
			x0, x1, x2 := inc[b], inc[b+1], inc[b+2]
			e, o := x0+x2, x0-x2
			u := sa*e + s01*x1
			g := sg * o
			os[b], os[b+1], os[b+2] = u+g, s10*e+s11*x1, u-g
			ua := aa*e + a01*x1
			ga := ag * o
			oa[b], oa[b+1], oa[b+2] = ga+ua, a10*o, ga-ua
		}
	}
}

// sfX3EOAnti applies an anti-persymmetric operator along x.
func sfX3EOAnti(A *eoAnti, in, out *[3][27]float64) {
	aa, ag, a01, a10 := A.a, A.g, A.m01, A.m10
	for c := 0; c < 3; c++ {
		inc, oc := &in[c], &out[c]
		for b := 0; b < 27; b += 3 {
			x0, x1, x2 := inc[b], inc[b+1], inc[b+2]
			e, o := x0+x2, x0-x2
			u := aa*e + a01*x1
			g := ag * o
			oc[b], oc[b+1], oc[b+2] = g+u, a10*o, g-u
		}
	}
}

// sfX3EOSymAdd applies a persymmetric operator along x, accumulating.
func sfX3EOSymAdd(S *eoSym, in, out *[3][27]float64) {
	sa, sg, s01, s10, s11 := S.a, S.g, S.m01, S.m10, S.m11
	for c := 0; c < 3; c++ {
		inc, oc := &in[c], &out[c]
		for b := 0; b < 27; b += 3 {
			x0, x1, x2 := inc[b], inc[b+1], inc[b+2]
			e, o := x0+x2, x0-x2
			u := sa*e + s01*x1
			g := sg * o
			oc[b] += u + g
			oc[b+1] += s10*e + s11*x1
			oc[b+2] += u - g
		}
	}
}

// sfY3EOSym applies a persymmetric operator along y (stride 3).
func sfY3EOSym(S *eoSym, in, out *[3][27]float64) {
	sa, sg, s01, s10, s11 := S.a, S.g, S.m01, S.m10, S.m11
	for c := 0; c < 3; c++ {
		inc, oc := &in[c], &out[c]
		for k := 0; k < 27; k += 9 {
			for i := k; i < k+3; i++ {
				x0, x1, x2 := inc[i], inc[i+3], inc[i+6]
				e, o := x0+x2, x0-x2
				u := sa*e + s01*x1
				g := sg * o
				oc[i], oc[i+3], oc[i+6] = u+g, s10*e+s11*x1, u-g
			}
		}
	}
}

// sfY3EOSymAdd is sfY3EOSym accumulating into out.
func sfY3EOSymAdd(S *eoSym, in, out *[3][27]float64) {
	sa, sg, s01, s10, s11 := S.a, S.g, S.m01, S.m10, S.m11
	for c := 0; c < 3; c++ {
		inc, oc := &in[c], &out[c]
		for k := 0; k < 27; k += 9 {
			for i := k; i < k+3; i++ {
				x0, x1, x2 := inc[i], inc[i+3], inc[i+6]
				e, o := x0+x2, x0-x2
				u := sa*e + s01*x1
				g := sg * o
				oc[i] += u + g
				oc[i+3] += s10*e + s11*x1
				oc[i+6] += u - g
			}
		}
	}
}

// sfY3EOAnti applies an anti-persymmetric operator along y.
func sfY3EOAnti(A *eoAnti, in, out *[3][27]float64) {
	aa, ag, a01, a10 := A.a, A.g, A.m01, A.m10
	for c := 0; c < 3; c++ {
		inc, oc := &in[c], &out[c]
		for k := 0; k < 27; k += 9 {
			for i := k; i < k+3; i++ {
				x0, x1, x2 := inc[i], inc[i+3], inc[i+6]
				e, o := x0+x2, x0-x2
				u := aa*e + a01*x1
				g := ag * o
				oc[i], oc[i+3], oc[i+6] = g+u, a10*o, g-u
			}
		}
	}
}

// sfY3EOBoth applies value and derivative operators along y, sharing
// one even-odd split.
func sfY3EOBoth(S *eoSym, A *eoAnti, in, outS, outA *[3][27]float64) {
	sa, sg, s01, s10, s11 := S.a, S.g, S.m01, S.m10, S.m11
	aa, ag, a01, a10 := A.a, A.g, A.m01, A.m10
	for c := 0; c < 3; c++ {
		inc, os, oa := &in[c], &outS[c], &outA[c]
		for k := 0; k < 27; k += 9 {
			for i := k; i < k+3; i++ {
				x0, x1, x2 := inc[i], inc[i+3], inc[i+6]
				e, o := x0+x2, x0-x2
				u := sa*e + s01*x1
				g := sg * o
				os[i], os[i+3], os[i+6] = u+g, s10*e+s11*x1, u-g
				ua := aa*e + a01*x1
				ga := ag * o
				oa[i], oa[i+3], oa[i+6] = ga+ua, a10*o, ga-ua
			}
		}
	}
}

// sfZ3EOSymToPlanes applies a persymmetric operator along z (stride
// 9), writing plane d of each component's gradient block.
func sfZ3EOSymToPlanes(S *eoSym, in *[3][27]float64, out *[3][3][27]float64, d int) {
	sa, sg, s01, s10, s11 := S.a, S.g, S.m01, S.m10, S.m11
	for c := 0; c < 3; c++ {
		inc, oc := &in[c], &out[c][d]
		for i := 0; i < 9; i++ {
			x0, x1, x2 := inc[i], inc[i+9], inc[i+18]
			e, o := x0+x2, x0-x2
			u := sa*e + s01*x1
			g := sg * o
			oc[i], oc[i+9], oc[i+18] = u+g, s10*e+s11*x1, u-g
		}
	}
}

// sfZ3EOAntiToPlanes applies an anti-persymmetric operator along z,
// writing plane d of each component's gradient block.
func sfZ3EOAntiToPlanes(A *eoAnti, in *[3][27]float64, out *[3][3][27]float64, d int) {
	aa, ag, a01, a10 := A.a, A.g, A.m01, A.m10
	for c := 0; c < 3; c++ {
		inc, oc := &in[c], &out[c][d]
		for i := 0; i < 9; i++ {
			x0, x1, x2 := inc[i], inc[i+9], inc[i+18]
			e, o := x0+x2, x0-x2
			u := aa*e + a01*x1
			g := ag * o
			oc[i], oc[i+9], oc[i+18] = g+u, a10*o, g-u
		}
	}
}

// sfZ3EOSymPlanes applies a persymmetric operator along z, reading
// plane d of each component's flux block.
func sfZ3EOSymPlanes(S *eoSym, in *[3][3][27]float64, d int, out *[3][27]float64) {
	sa, sg, s01, s10, s11 := S.a, S.g, S.m01, S.m10, S.m11
	for c := 0; c < 3; c++ {
		inc, oc := &in[c][d], &out[c]
		for i := 0; i < 9; i++ {
			x0, x1, x2 := inc[i], inc[i+9], inc[i+18]
			e, o := x0+x2, x0-x2
			u := sa*e + s01*x1
			g := sg * o
			oc[i], oc[i+9], oc[i+18] = u+g, s10*e+s11*x1, u-g
		}
	}
}

// sfZ3EOAntiPlanes applies an anti-persymmetric operator along z,
// reading plane d of each component's flux block.
func sfZ3EOAntiPlanes(A *eoAnti, in *[3][3][27]float64, d int, out *[3][27]float64) {
	aa, ag, a01, a10 := A.a, A.g, A.m01, A.m10
	for c := 0; c < 3; c++ {
		inc, oc := &in[c][d], &out[c]
		for i := 0; i < 9; i++ {
			x0, x1, x2 := inc[i], inc[i+9], inc[i+18]
			e, o := x0+x2, x0-x2
			u := aa*e + a01*x1
			g := ag * o
			oc[i], oc[i+9], oc[i+18] = g+u, a10*o, g-u
		}
	}
}

// grad runs the forward pass for one scalar field u (27 nodal values):
// the three physical derivatives at the 27 Gauss points, each as three
// 1-D contractions sharing the value-interpolation stages.
func (k *SumFactorKernels) grad(u *[27]float64, s *SFScratch, gx, gy, gz *[27]float64) {
	sfX(&q2B, u, &s.t0)  // values interpolated along x
	sfX(&k.dx, u, &s.t1) // d/dx along x
	sfY(&q2B, &s.t1, &s.t2)
	sfZ(&q2B, &s.t2, gx)
	sfY(&k.dy, &s.t0, &s.t1)
	sfZ(&q2B, &s.t1, gy)
	sfY(&q2B, &s.t0, &s.t1)
	sfZ(&k.dz, &s.t1, gz)
}

// gradT runs the test-function pass: given per-direction quadrature
// fluxes f0, f1, f2 (consumed as scratch), it accumulates
// y[n] = sum_q sum_d d_d phi_n(q) f_d(q) into out.
func (k *SumFactorKernels) gradT(f0, f1, f2 *[27]float64, s *SFScratch, out *[27]float64) {
	sfZ(&q2Bt, f0, &s.t0)
	sfY(&q2Bt, &s.t0, &s.t1)
	sfX(&k.dxt, &s.t1, &s.t2) // d/dx term complete in t2
	sfZ(&q2Bt, f1, &s.t0)
	sfY(&k.dyt, &s.t0, &s.t1)
	sfZ(&k.dzt, f2, &s.t0)
	sfY(&q2Bt, &s.t0, f2) // f2 reused as scratch
	for n := 0; n < 27; n++ {
		s.t1[n] += f2[n]
	}
	sfX(&q2Bt, &s.t1, &s.t0)
	for n := 0; n < 27; n++ {
		out[n] = s.t2[n] + s.t0[n]
	}
}

// Apply computes the action of the coupled Taylor-Hood element
// operator (same contract and 4n+c dof layout as Q2StokesKernels.Apply)
// via sum factorization: forward gradient passes for the three
// velocity components, a pointwise symmetric-stress/pressure flux at
// the 27 Gauss points, and transposed test-function passes, with the
// trilinear pressure interpolated and tested through the cached q1N27
// table. It matches the naive dense kernel to rounding.
func (k *SumFactorKernels) Apply(eta float64, xe, ye *[108]float64, s *SFScratch) {
	for n := 0; n < 27; n++ {
		s.u[0][n] = xe[4*n]
		s.u[1][n] = xe[4*n+1]
		s.u[2][n] = xe[4*n+2]
	}
	sfX3EOBoth(&k.bS, &k.dxA, &s.u, &s.v, &s.w) // v = values, w = d/dx
	sfY3EOSym(&k.bS, &s.w, &s.u)
	sfZ3EOSymToPlanes(&k.bS, &s.u, &s.g, 0)
	sfY3EOBoth(&k.bS, &k.dyA, &s.v, &s.w, &s.u) // w = values, u = d/dy
	sfZ3EOSymToPlanes(&k.bS, &s.u, &s.g, 1)
	sfZ3EOAntiToPlanes(&k.dzA, &s.w, &s.g, 2)
	var pe [8]float64
	for a := 0; a < 8; a++ {
		pe[a] = xe[4*q2CornerNode[a]+3]
	}
	pe0, pe1, pe2, pe3 := pe[0], pe[1], pe[2], pe[3]
	pe4, pe5, pe6, pe7 := pe[4], pe[5], pe[6], pe[7]
	// Pointwise flux F[c][d] = w (eta (d_d u_c + d_c u_d) - p delta_cd)
	// overwrites the gradient planes; dv collects -w div u for the
	// pressure rows; the trilinear pressure is interpolated in place
	// through the cached q1N27 table.
	for q := 0; q < 27; q++ {
		w := k.wq[q]
		we := w * eta
		g00, g01, g02 := s.g[0][0][q], s.g[0][1][q], s.g[0][2][q]
		g10, g11, g12 := s.g[1][0][q], s.g[1][1][q], s.g[1][2][q]
		g20, g21, g22 := s.g[2][0][q], s.g[2][1][q], s.g[2][2][q]
		P := &q1N27[q]
		p := w * (P[0]*pe0 + P[1]*pe1 + P[2]*pe2 + P[3]*pe3 +
			P[4]*pe4 + P[5]*pe5 + P[6]*pe6 + P[7]*pe7)
		s.dv[q] = -w * (g00 + g11 + g22)
		s.g[0][0][q] = 2*we*g00 - p
		s.g[1][1][q] = 2*we*g11 - p
		s.g[2][2][q] = 2*we*g22 - p
		f01 := we * (g01 + g10)
		s.g[0][1][q], s.g[1][0][q] = f01, f01
		f02 := we * (g02 + g20)
		s.g[0][2][q], s.g[2][0][q] = f02, f02
		f12 := we * (g12 + g21)
		s.g[1][2][q], s.g[2][1][q] = f12, f12
	}
	sfZ3EOSymPlanes(&k.btS, &s.g, 0, &s.u)
	sfY3EOSym(&k.btS, &s.u, &s.v)
	sfX3EOAnti(&k.dxtA, &s.v, &s.u) // d/dx test term complete in u
	sfZ3EOSymPlanes(&k.btS, &s.g, 1, &s.v)
	sfY3EOAnti(&k.dytA, &s.v, &s.w)
	sfZ3EOAntiPlanes(&k.dztA, &s.g, 2, &s.v)
	sfY3EOSymAdd(&k.btS, &s.v, &s.w)
	sfX3EOSymAdd(&k.btS, &s.w, &s.u)
	for n := 0; n < 27; n++ {
		ye[4*n] = s.u[0][n]
		ye[4*n+1] = s.u[1][n]
		ye[4*n+2] = s.u[2][n]
		ye[4*n+3] = 0
	}
	for a := 0; a < 8; a++ {
		var sp float64
		for q := 0; q < 27; q++ {
			sp += q1N27[q][a] * s.dv[q]
		}
		ye[4*q2CornerNode[a]+3] = sp
	}
}

// ApplyScalar computes ye = coef * K2 xe for the triquadratic scalar
// diffusion operator (the p-level smoother of the Q2 preconditioner),
// matching Q2StiffnessBrick to rounding.
func (k *SumFactorKernels) ApplyScalar(coef float64, xe, ye *[27]float64, s *SFScratch) {
	k.grad(xe, s, &s.g[0][0], &s.g[0][1], &s.g[0][2])
	for q := 0; q < 27; q++ {
		w := coef * k.wq[q]
		s.g[0][0][q] *= w
		s.g[0][1][q] *= w
		s.g[0][2][q] *= w
	}
	k.gradT(&s.g[0][0], &s.g[0][1], &s.g[0][2], s, ye)
}

// ApplyMass computes ye = M2 xe for the triquadratic consistent mass
// (used by the Q2 load vector), matching Q2MassBrick to rounding.
func (k *SumFactorKernels) ApplyMass(xe, ye *[27]float64, s *SFScratch) {
	sfX(&q2B, xe, &s.t0)
	sfY(&q2B, &s.t0, &s.t1)
	sfZ(&q2B, &s.t1, &s.t2)
	for q := 0; q < 27; q++ {
		s.t2[q] *= k.wq[q]
	}
	sfZ(&q2Bt, &s.t2, &s.t0)
	sfY(&q2Bt, &s.t0, &s.t1)
	sfX(&q2Bt, &s.t1, ye)
}

// SumFactorKernelsFor returns the per-element Q2 kernels of an
// axis-aligned mesh, one per octree level, aliased by every element of
// that level. Mapped (forest) meshes are not supported by the Q2
// path and panic.
func SumFactorKernelsFor(m *mesh.Mesh, dom Domain) []*SumFactorKernels {
	if m.X != nil {
		panic("fem: Q2 sum-factorized kernels require an axis-aligned mesh")
	}
	kern := make([]*SumFactorKernels, len(m.Leaves))
	byLevel := map[uint8]*SumFactorKernels{}
	for ei, leaf := range m.Leaves {
		k, ok := byLevel[leaf.Level]
		if !ok {
			k = NewSumFactorKernels(dom.ElemSize(leaf))
			byLevel[leaf.Level] = k
		}
		kern[ei] = k
	}
	return kern
}
