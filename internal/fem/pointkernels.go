package fem

// Point kernels: the element operators of the two PDEs applied as
// actions at the quadrature points. Instead of tabulating an element
// matrix and multiplying it against the corner values, each kernel
// interpolates the corner data to the eight Gauss points, forms the flux
// there and tests it against the shape gradients. The Stokes kernel
// works in reference coordinates by sum factorisation and reads only the
// per-point J^{-1} and weight (QJac) that ElemGeom caches for mapped
// elements. The transport kernel reads physical gradients (QGeom): one
// table per octree level from BrickQGeom for axis-aligned elements, an
// expansion by ElemGeom.Grads for mapped ones. No per-element matrix is
// formed or stored.

// BrickQGeom returns the quadrature-point geometry of an axis-aligned
// brick with physical edge lengths h: constant Jacobian diag(h), so the
// physical gradients are dN/h and every weight is vol/8. One table serves
// every element of an octree level.
func BrickQGeom(h [3]float64) *[8]QGeom {
	var Q [8]QGeom
	vol := h[0] * h[1] * h[2]
	for qi := range Quad8 {
		q := &Quad8[qi]
		for c := 0; c < 8; c++ {
			for d := 0; d < 3; d++ {
				Q[qi].G[c][d] = q.dNdX[c][d] / h[d]
			}
		}
		Q[qi].W = q.W * vol
	}
	return &Q
}

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

// The mapped Stokes point kernel, (*ElemGeom).StokesApply, is generated
// straight-line code in stokesapply.go.
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
