package fem

// The matrix-forming transport builders: Galerkin advection and SUPG
// element matrices by 8-point quadrature, on bricks and on mapped
// elements. Production code applies these operators at the quadrature
// points (TransportRate) and never forms them; they are kept here as the
// reference the point kernel's tests compare against.

// BrickQGeom returns the quadrature-point geometry of an axis-aligned
// brick with physical edge lengths h: constant Jacobian diag(h), so the
// physical gradients are dN/h and every weight is vol/8. On it the dense
// TransportRate is the oracle of the separable BrickGeom.TransportRate.
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

// AdvectionBrick returns the Galerkin advection matrix
// G[a][b] = Integral phi_a (u . grad phi_b) dV with the velocity field
// interpolated trilinearly from corner values u[c][d].
func AdvectionBrick(h [3]float64, u *[8][3]float64) [8][8]float64 {
	var G [8][8]float64
	vol := h[0] * h[1] * h[2]
	for _, q := range Quad8 {
		var uq [3]float64
		for c := 0; c < 8; c++ {
			for d := 0; d < 3; d++ {
				uq[d] += u[c][d] * q.N[c]
			}
		}
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				var s float64
				for d := 0; d < 3; d++ {
					s += uq[d] * q.dNdX[b][d] / h[d]
				}
				G[a][b] += q.W * vol * q.N[a] * s
			}
		}
	}
	return G
}

// SUPGBrick returns the streamline-upwind Petrov–Galerkin stabilization
// matrix S[a][b] = tau * Integral (u.grad phi_a)(u.grad phi_b) dV plus
// the corresponding stabilized mass correction is handled by the caller.
// tau is the SUPG parameter for the element.
func SUPGBrick(h [3]float64, u *[8][3]float64, tau float64) [8][8]float64 {
	var S [8][8]float64
	vol := h[0] * h[1] * h[2]
	for _, q := range Quad8 {
		var uq [3]float64
		for c := 0; c < 8; c++ {
			for d := 0; d < 3; d++ {
				uq[d] += u[c][d] * q.N[c]
			}
		}
		var ug [8]float64
		for a := 0; a < 8; a++ {
			for d := 0; d < 3; d++ {
				ug[a] += uq[d] * q.dNdX[a][d] / h[d]
			}
		}
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				S[a][b] += tau * q.W * vol * ug[a] * ug[b]
			}
		}
	}
	return S
}

// AdvectionGeom is AdvectionBrick on a mapped element with
// quadrature-point geometry Q.
func AdvectionGeom(Q *[8]QGeom, u *[8][3]float64) [8][8]float64 {
	var G [8][8]float64
	for qi := range Q {
		q := &Q[qi]
		N := &Quad8[qi].N
		var uq [3]float64
		for c := 0; c < 8; c++ {
			for d := 0; d < 3; d++ {
				uq[d] += u[c][d] * N[c]
			}
		}
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				s := uq[0]*q.G[b][0] + uq[1]*q.G[b][1] + uq[2]*q.G[b][2]
				G[a][b] += q.W * N[a] * s
			}
		}
	}
	return G
}

// SUPGGeom is SUPGBrick on a mapped element with quadrature-point
// geometry Q.
func SUPGGeom(Q *[8]QGeom, u *[8][3]float64, tau float64) [8][8]float64 {
	var S [8][8]float64
	for qi := range Q {
		q := &Q[qi]
		N := &Quad8[qi].N
		var uq [3]float64
		for c := 0; c < 8; c++ {
			for d := 0; d < 3; d++ {
				uq[d] += u[c][d] * N[c]
			}
		}
		var ug [8]float64
		for a := 0; a < 8; a++ {
			ug[a] = uq[0]*q.G[a][0] + uq[1]*q.G[a][1] + uq[2]*q.G[a][2]
		}
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				S[a][b] += tau * q.W * ug[a] * ug[b]
			}
		}
	}
	return S
}
