package fem

// Point kernels: the element operators of the two PDEs applied as
// actions at the quadrature points. Instead of tabulating an element
// matrix and multiplying it against the corner values, each kernel
// interpolates the corner data to the eight Gauss points, forms the flux
// there and tests it against the physical shape gradients — reading only
// the per-point geometry (QGeom: gradients and weight) that ElemGeom
// already caches for mapped elements and that BrickQGeom tabulates once
// per octree level for axis-aligned ones. No per-element matrix is formed
// or stored.

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

// StokesApply computes the action of the coupled Q1-Q1 Stokes element
// operator of the mapped element g with viscosity eta — the same
// contract and 4a+c dof layout as StokesKernels.Apply, to which it is
// equal to rounding — without any tabulated matrix. Per quadrature point
//
//	L = sum_b u_b (x) G_b,  p_q = sum_b N_b p_b,
//	S = W (eta (L + L^T) - p_q I),
//	ye_v[a] += S G_a,  ye_p[a] += N_a W (-tr L - p_q/eta),
//
// and after the loop the Dohrmann–Bochev projection term
// ye_p[a] += (sum_q W p_q) / (eta Vol) * sum_q W N_a, which restores the
// element-mean pressure the mass term removed.
func (g *ElemGeom) StokesApply(eta float64, xe, ye *[32]float64) {
	inv := 1 / eta
	*ye = [32]float64{}
	var lump [8]float64 // sum_q W N_a
	var pbar float64    // sum_q W p_q
	for qi := range g.Q {
		q := &g.Q[qi]
		N := &Quad8[qi].N
		var l00, l01, l02, l10, l11, l12, l20, l21, l22, pq float64
		for b := 0; b < 8; b++ {
			gb := &q.G[b]
			g0, g1, g2 := gb[0], gb[1], gb[2]
			x0, x1, x2 := xe[4*b], xe[4*b+1], xe[4*b+2]
			l00 += x0 * g0
			l01 += x0 * g1
			l02 += x0 * g2
			l10 += x1 * g0
			l11 += x1 * g1
			l12 += x1 * g2
			l20 += x2 * g0
			l21 += x2 * g1
			l22 += x2 * g2
			pq += N[b] * xe[4*b+3]
		}
		w := q.W
		we := w * eta
		wp := w * pq
		s00 := 2*we*l00 - wp
		s11 := 2*we*l11 - wp
		s22 := 2*we*l22 - wp
		s01 := we * (l01 + l10)
		s02 := we * (l02 + l20)
		s12 := we * (l12 + l21)
		r := -w*(l00+l11+l22) - inv*wp
		pbar += wp
		for a := 0; a < 8; a++ {
			ga := &q.G[a]
			g0, g1, g2 := ga[0], ga[1], ga[2]
			ye[4*a] += s00*g0 + s01*g1 + s02*g2
			ye[4*a+1] += s01*g0 + s11*g1 + s12*g2
			ye[4*a+2] += s02*g0 + s12*g1 + s22*g2
			ye[4*a+3] += N[a] * r
			lump[a] += w * N[a]
		}
	}
	s := pbar * inv / g.Vol
	for a := 0; a < 8; a++ {
		ye[4*a+3] += s * lump[a]
	}
}

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
