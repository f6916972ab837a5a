package fem

import "math"

// The stored-gradient element geometry and the Stokes point kernel that
// read it, as they ran before ElemGeom kept J^{-1} per quadrature point
// in place of the 24 physical gradients: the oracles that the
// sum-factorised StokesApply and ElemGeom.Grads are tested against.

// refElemGeom is the stored-gradient geometry of a mapped element.
type refElemGeom struct {
	Q   [8]QGeom
	Vol float64
}

// refJacobianAt computes the Jacobian data of the trilinear map at one
// reference point: physical gradients g = J^{-T} dN and det J.
func refJacobianAt(X *[8][3]float64, dN *[8][3]float64, G *[8][3]float64) float64 {
	var J [3][3]float64 // J[i][j] = dx_i/dxi_j
	for c := 0; c < 8; c++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				J[i][j] += X[c][i] * dN[c][j]
			}
		}
	}
	det := J[0][0]*(J[1][1]*J[2][2]-J[1][2]*J[2][1]) -
		J[0][1]*(J[1][0]*J[2][2]-J[1][2]*J[2][0]) +
		J[0][2]*(J[1][0]*J[2][1]-J[1][1]*J[2][0])
	inv := 1 / det
	var Ji [3][3]float64 // J^{-1}
	Ji[0][0] = (J[1][1]*J[2][2] - J[1][2]*J[2][1]) * inv
	Ji[0][1] = (J[0][2]*J[2][1] - J[0][1]*J[2][2]) * inv
	Ji[0][2] = (J[0][1]*J[1][2] - J[0][2]*J[1][1]) * inv
	Ji[1][0] = (J[1][2]*J[2][0] - J[1][0]*J[2][2]) * inv
	Ji[1][1] = (J[0][0]*J[2][2] - J[0][2]*J[2][0]) * inv
	Ji[1][2] = (J[0][2]*J[1][0] - J[0][0]*J[1][2]) * inv
	Ji[2][0] = (J[1][0]*J[2][1] - J[1][1]*J[2][0]) * inv
	Ji[2][1] = (J[0][1]*J[2][0] - J[0][0]*J[2][1]) * inv
	Ji[2][2] = (J[0][0]*J[1][1] - J[0][1]*J[1][0]) * inv
	// g_c = J^{-T} dN_c: g[i] = sum_j Ji[j][i] dN[j].
	for c := 0; c < 8; c++ {
		for i := 0; i < 3; i++ {
			G[c][i] = Ji[0][i]*dN[c][0] + Ji[1][i]*dN[c][1] + Ji[2][i]*dN[c][2]
		}
	}
	return det
}

// newRefElemGeom stores the physical gradients and weights of every
// quadrature point of the element with corners X.
func newRefElemGeom(X *[8][3]float64) *refElemGeom {
	g := &refElemGeom{}
	for qi := range Quad8 {
		q := &Quad8[qi]
		dN := q.dNdX
		det := refJacobianAt(X, &dN, &g.Q[qi].G)
		g.Q[qi].W = q.W * math.Abs(det)
		g.Vol += g.Q[qi].W
	}
	return g
}

// StokesApply is the quadrature-point Stokes kernel over stored
// gradients. Per quadrature point
//
//	L = sum_b u_b (x) G_b,  p_q = sum_b N_b p_b,
//	S = W (eta (L + L^T) - p_q I),
//	ye_v[a] += S G_a,  ye_p[a] += N_a W (-tr L - p_q/eta),
//
// and after the loop the Dohrmann–Bochev projection term
// ye_p[a] += (sum_q W p_q) / (eta Vol) * sum_q W N_a.
func (g *refElemGeom) StokesApply(eta float64, xe, ye *[32]float64) {
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
