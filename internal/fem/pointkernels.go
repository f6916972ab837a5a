package fem

// Point kernels: the element operators of the two PDEs applied as
// actions at the quadrature points. Instead of tabulating an element
// matrix and multiplying it against the corner values, each kernel
// interpolates the corner data to the eight Gauss points, forms the flux
// there and tests it against the shape gradients. The Stokes kernel
// works in reference coordinates by sum factorisation and reads only the
// per-point J^{-1} and weight (QJac) that ElemGeom caches for mapped
// elements. The transport kernel has two forms: on axis-aligned bricks
// (BrickGeom.TransportRate) it is separable — three 1-D passes each way
// and a gradient that takes four distinct values per component, from
// 1/h per axis and one point weight; on mapped elements
// (TransportRate) it reads physical gradients (QGeom) expanded by
// ElemGeom.Grads. No per-element matrix is formed or stored.

// LumpedMassQ returns the row-sum lumped mass vector scaled by coef from
// quadrature-point geometry: sum_b M_ab = sum_q W_q N_a(q), since the
// shape functions sum to one.
func LumpedMassQ(Q *[8]QGeom, coef float64) [8]float64 {
	var m [8]float64
	for qi := range Q {
		w := coef * Q[qi].W
		N := &Quad8[qi].N
		for a := 0; a < 8; a++ {
			m[a] += w * N[a]
		}
	}
	return m
}

// TransportRate accumulates into R the negated action of the
// SUPG-stabilized advection–diffusion element operator on the corner
// temperatures T, R -= (K + G + S) T, for corner velocities u,
// diffusivity kappa and SUPG parameter tau. Per quadrature point
//
//	u_q = sum_c N_c u_c,  grad T = sum_b T_b G_b,  c = u_q . grad T,
//	R_a -= W [ G_a . (kappa grad T + tau c u_q) + N_a c ],
//
// which is the diffusion, streamline-diffusion and Galerkin advection
// terms in one pass. The gradient is taken of T - T_0 (the gradients of
// a partition of unity sum to zero), so a constant field yields exactly
// zero.
func TransportRate(Q *[8]QGeom, kappa, tau float64, u *[8][3]float64, T, R *[8]float64) {
	var dT [8]float64
	for b := 1; b < 8; b++ {
		dT[b] = T[b] - T[0]
	}
	for qi := range Q {
		q := &Q[qi]
		N := &Quad8[qi].N
		var u0, u1, u2, g0, g1, g2 float64
		for c := 0; c < 8; c++ {
			n, uc := N[c], &u[c]
			u0 += n * uc[0]
			u1 += n * uc[1]
			u2 += n * uc[2]
			t, gc := dT[c], &q.G[c]
			g0 += t * gc[0]
			g1 += t * gc[1]
			g2 += t * gc[2]
		}
		c := u0*g0 + u1*g1 + u2*g2
		tc := tau * c
		f0 := q.W * (kappa*g0 + tc*u0)
		f1 := q.W * (kappa*g1 + tc*u1)
		f2 := q.W * (kappa*g2 + tc*u2)
		wc := q.W * c
		for a := 0; a < 8; a++ {
			ga := &q.G[a]
			R[a] -= ga[0]*f0 + ga[1]*f1 + ga[2]*f2 + N[a]*wc
		}
	}
}

// BrickGeom is what the separable transport kernel reads of an
// axis-aligned brick with edge lengths h: the Jacobian is the constant
// diag(h), so the physical gradient along axis d is the reference one
// times InvH[d], and every Gauss point weighs W = vol/8. It depends only
// on h, so one value serves every element of an octree level.
type BrickGeom struct {
	InvH [3]float64
	W    float64
}

// NewBrickGeom returns the brick geometry for edge lengths h.
func NewBrickGeom(h [3]float64) BrickGeom {
	return BrickGeom{InvH: [3]float64{1 / h[0], 1 / h[1], 1 / h[2]}, W: Quad8[0].W * (h[0] * h[1] * h[2])}
}

// LumpedMass returns the brick's row-sum lumped mass, sum_q W N_a(q),
// summed in LumpedMassQ's order.
func (b *BrickGeom) LumpedMass() [8]float64 {
	var m [8]float64
	for qi := range Quad8 {
		N := &Quad8[qi].N
		for a := 0; a < 8; a++ {
			m[a] += b.W * N[a]
		}
	}
	return m
}

// gLo and gHi are the 1-D trilinear basis values at the two Gauss points:
// phi_0 = gHi, phi_1 = gLo at the first point and the reverse at the
// second, so the 2x2 interpolation matrix is symmetric and is its own
// transpose.
var gLo, gHi = gauss2[0], 1 - gauss2[0]

// lerp2 takes the 1-D pair (a, b) to its values at the two Gauss points.
func lerp2(a, b float64) (float64, float64) { return gHi*a + gLo*b, gLo*a + gHi*b }

// interp8 maps eight z-ordered corner values to the eight Gauss points
// (Quad8 order) in place, one 1-D pass per axis. The operator is
// symmetric, so the same passes contract point values against the shape
// functions: out_a = sum_q N_a(q) v_q.
func interp8(v *[8]float64) {
	v0, v1 := lerp2(v[0], v[1])
	v2, v3 := lerp2(v[2], v[3])
	v4, v5 := lerp2(v[4], v[5])
	v6, v7 := lerp2(v[6], v[7])
	v0, v2 = lerp2(v0, v2)
	v1, v3 = lerp2(v1, v3)
	v4, v6 = lerp2(v4, v6)
	v5, v7 = lerp2(v5, v7)
	v[0], v[4] = lerp2(v0, v4)
	v[1], v[5] = lerp2(v1, v5)
	v[2], v[6] = lerp2(v2, v6)
	v[3], v[7] = lerp2(v3, v7)
}

// interp4 is interp8 on a face: four values over two axes, scaled by s.
func interp4(v *[4]float64, s float64) {
	v0, v1 := lerp2(v[0], v[1])
	v2, v3 := lerp2(v[2], v[3])
	v0, v2 = lerp2(v0, v2)
	v1, v3 = lerp2(v1, v3)
	v[0], v[1], v[2], v[3] = s*v0, s*v1, s*v2, s*v3
}

// pointFlux forms what one Gauss point contributes, for velocity u and
// temperature gradient g there: W c with c = u . g, and the flux
// W (kappa g + tau c u) through wk = W kappa and wt = W tau.
func pointFlux(u0, u1, u2, g0, g1, g2, wk, wt, w float64) (wc, f0, f1, f2 float64) {
	c := u0*g0 + u1*g1 + u2*g2
	tc := wt * c
	return w * c, wk*g0 + tc*u0, wk*g1 + tc*u1, wk*g2 + tc*u2
}

// TransportRate is the brick form of the package-level TransportRate:
// R -= (K + G + S) T for corner velocities u, diffusivity kappa and SUPG
// parameter tau, with the same per-point flux. On a brick it separates.
// The velocity reaches the Gauss points in three 1-D passes. dT/dx_d is
// constant along axis d, so each component is the four edge differences
// along d interpolated over the other two axes; the gradient at point
// (p, q, r) is (gx[q,r], gy[p,r], gz[p,q]). On the test side the
// Galerkin term N_a c goes back through the transposed passes, and
// G_a . f needs f_d summed along axis d (where G_a,d does not vary),
// contracted over the other two axes and given the sign of corner a's
// d-bit. A constant T has zero edge differences and so exactly zero rate.
func (b *BrickGeom) TransportRate(kappa, tau float64, u *[8][3]float64, T, R *[8]float64) {
	var ux, uy, uz [8]float64
	for c := range u {
		ux[c], uy[c], uz[c] = u[c][0], u[c][1], u[c][2]
	}
	interp8(&ux)
	interp8(&uy)
	interp8(&uz)
	// Edge differences along x (indexed j+2k), y (i+2k) and z (i+2j).
	gx := [4]float64{T[1] - T[0], T[3] - T[2], T[5] - T[4], T[7] - T[6]}
	gy := [4]float64{T[2] - T[0], T[3] - T[1], T[6] - T[4], T[7] - T[5]}
	gz := [4]float64{T[4] - T[0], T[5] - T[1], T[6] - T[2], T[7] - T[3]}
	interp4(&gx, b.InvH[0])
	interp4(&gy, b.InvH[1])
	interp4(&gz, b.InvH[2])

	// Per point: W c with c = u . grad T, and the flux W (kappa grad T +
	// tau c u), each component summed along its own axis.
	wk, wt, w := b.W*kappa, b.W*tau, b.W
	var wc [8]float64
	var x0, x1, x2, x3, x4, x5, x6, x7 float64 // fx per point
	var y0, y1, y2, y3, y4, y5, y6, y7 float64
	var z0, z1, z2, z3, z4, z5, z6, z7 float64
	wc[0], x0, y0, z0 = pointFlux(ux[0], uy[0], uz[0], gx[0], gy[0], gz[0], wk, wt, w)
	wc[1], x1, y1, z1 = pointFlux(ux[1], uy[1], uz[1], gx[0], gy[1], gz[1], wk, wt, w)
	wc[2], x2, y2, z2 = pointFlux(ux[2], uy[2], uz[2], gx[1], gy[0], gz[2], wk, wt, w)
	wc[3], x3, y3, z3 = pointFlux(ux[3], uy[3], uz[3], gx[1], gy[1], gz[3], wk, wt, w)
	wc[4], x4, y4, z4 = pointFlux(ux[4], uy[4], uz[4], gx[2], gy[2], gz[0], wk, wt, w)
	wc[5], x5, y5, z5 = pointFlux(ux[5], uy[5], uz[5], gx[2], gy[3], gz[1], wk, wt, w)
	wc[6], x6, y6, z6 = pointFlux(ux[6], uy[6], uz[6], gx[3], gy[2], gz[2], wk, wt, w)
	wc[7], x7, y7, z7 = pointFlux(ux[7], uy[7], uz[7], gx[3], gy[3], gz[3], wk, wt, w)
	fx := [4]float64{x0 + x1, x2 + x3, x4 + x5, x6 + x7}
	fy := [4]float64{y0 + y2, y1 + y3, y4 + y6, y5 + y7}
	fz := [4]float64{z0 + z4, z1 + z5, z2 + z6, z3 + z7}
	interp8(&wc)
	interp4(&fx, b.InvH[0])
	interp4(&fy, b.InvH[1])
	interp4(&fz, b.InvH[2])
	R[0] -= wc[0] - fx[0] - fy[0] - fz[0]
	R[1] -= wc[1] + fx[0] - fy[1] - fz[1]
	R[2] -= wc[2] - fx[1] + fy[0] - fz[2]
	R[3] -= wc[3] + fx[1] + fy[1] - fz[3]
	R[4] -= wc[4] - fx[2] - fy[2] + fz[0]
	R[5] -= wc[5] + fx[2] - fy[3] + fz[1]
	R[6] -= wc[6] - fx[3] + fy[2] + fz[2]
	R[7] -= wc[7] + fx[3] + fy[3] + fz[3]
}

// The mapped Stokes point kernel, (*ElemGeom).StokesApply, is generated
// straight-line code in stokesapply.go, and its four-lane AVX2 form is
// compiled from that code into stokesapply_amd64.s.
//go:generate go run gen_stokesapply.go

// Load computes the consistent load vector of the corner body force f on
// the mapped element g, F_a = sum_q W N_a (sum_b N_b f_b) — the action of
// the element mass matrix without forming it.
func (g *ElemGeom) Load(f, F *[8][3]float64) {
	*F = [8][3]float64{}
	for qi := range g.Q {
		N := &Quad8[qi].N
		var f0, f1, f2 float64
		for b := 0; b < 8; b++ {
			n, fb := N[b], &f[b]
			f0 += n * fb[0]
			f1 += n * fb[1]
			f2 += n * fb[2]
		}
		w := g.Q[qi].W
		f0, f1, f2 = w*f0, w*f1, w*f2
		for a := 0; a < 8; a++ {
			n := N[a]
			F[a][0] += n * f0
			F[a][1] += n * f1
			F[a][2] += n * f2
		}
	}
}
