// Code generated by gen_stokesapply.go; DO NOT EDIT.

package fem

// StokesApply computes the action of the coupled Q1-Q1 Stokes element
// operator of the mapped element g with viscosity eta — the same
// contract and 4a+c dof layout as StokesKernels.Apply, to which it is
// equal to rounding — without any tabulated matrix, by sum
// factorisation in reference coordinates. Per quadrature point q, with
// the reference velocity gradient L_ref[i][d] = du_i/dxi_d (each one
// four edge differences interpolated over the two other axes) and the
// pressure p_q (three 1D interpolation passes),
//
//	L = L_ref J^{-1},  S = W (eta (L + L^T) - p_q I),  F = S J^{-T},
//	r_q = W (-tr L - p_q/eta) + W pbar/(eta Vol),  pbar = sum_q W p_q,
//
// and the transposed passes test F against the reference shape
// gradients (ye_v) and r against the shape values (ye_p). The last term
// of r_q is the Dohrmann–Bochev projection, which restores the
// element-mean pressure the mass term removed. The kernel reads only
// g.Q (J^{-1} and W per point) and g.Vol: 648 B per element.
func (g *ElemGeom) StokesApply(eta float64, xe, ye *[32]float64) {
	const ga = 0.5 + 0.5/1.7320508075688772935274463415 // 1D shape value at its own Gauss point
	const gb = 1 - ga
	inv := 1 / eta
	var a0, a1, a2, a3 float64

	// Reference velocity gradients on the Gauss lines, l{i}{d}{e} = du_i/dxi_d:
	// the edge differences e{e} interpolated over the two other axes.
	var e0, e1, e2, e3 float64
	e0, e1, e2, e3 = xe[4]-xe[0], xe[12]-xe[8], xe[20]-xe[16], xe[28]-xe[24]
	a0, a1, a2, a3 = ga*e0+gb*e1, gb*e0+ga*e1, ga*e2+gb*e3, gb*e2+ga*e3
	l000, l001, l002, l003 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	e0, e1, e2, e3 = xe[8]-xe[0], xe[12]-xe[4], xe[24]-xe[16], xe[28]-xe[20]
	a0, a1, a2, a3 = ga*e0+gb*e1, gb*e0+ga*e1, ga*e2+gb*e3, gb*e2+ga*e3
	l010, l011, l012, l013 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	e0, e1, e2, e3 = xe[16]-xe[0], xe[20]-xe[4], xe[24]-xe[8], xe[28]-xe[12]
	a0, a1, a2, a3 = ga*e0+gb*e1, gb*e0+ga*e1, ga*e2+gb*e3, gb*e2+ga*e3
	l020, l021, l022, l023 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	e0, e1, e2, e3 = xe[5]-xe[1], xe[13]-xe[9], xe[21]-xe[17], xe[29]-xe[25]
	a0, a1, a2, a3 = ga*e0+gb*e1, gb*e0+ga*e1, ga*e2+gb*e3, gb*e2+ga*e3
	l100, l101, l102, l103 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	e0, e1, e2, e3 = xe[9]-xe[1], xe[13]-xe[5], xe[25]-xe[17], xe[29]-xe[21]
	a0, a1, a2, a3 = ga*e0+gb*e1, gb*e0+ga*e1, ga*e2+gb*e3, gb*e2+ga*e3
	l110, l111, l112, l113 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	e0, e1, e2, e3 = xe[17]-xe[1], xe[21]-xe[5], xe[25]-xe[9], xe[29]-xe[13]
	a0, a1, a2, a3 = ga*e0+gb*e1, gb*e0+ga*e1, ga*e2+gb*e3, gb*e2+ga*e3
	l120, l121, l122, l123 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	e0, e1, e2, e3 = xe[6]-xe[2], xe[14]-xe[10], xe[22]-xe[18], xe[30]-xe[26]
	a0, a1, a2, a3 = ga*e0+gb*e1, gb*e0+ga*e1, ga*e2+gb*e3, gb*e2+ga*e3
	l200, l201, l202, l203 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	e0, e1, e2, e3 = xe[10]-xe[2], xe[14]-xe[6], xe[26]-xe[18], xe[30]-xe[22]
	a0, a1, a2, a3 = ga*e0+gb*e1, gb*e0+ga*e1, ga*e2+gb*e3, gb*e2+ga*e3
	l210, l211, l212, l213 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	e0, e1, e2, e3 = xe[18]-xe[2], xe[22]-xe[6], xe[26]-xe[10], xe[30]-xe[14]
	a0, a1, a2, a3 = ga*e0+gb*e1, gb*e0+ga*e1, ga*e2+gb*e3, gb*e2+ga*e3
	l220, l221, l222, l223 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3

	// Pressure, weight and weighted pressure at the Gauss points.
	px0, px1, px2, px3 := ga*xe[3]+gb*xe[7], gb*xe[3]+ga*xe[7], ga*xe[11]+gb*xe[15], gb*xe[11]+ga*xe[15]
	px4, px5, px6, px7 := ga*xe[19]+gb*xe[23], gb*xe[19]+ga*xe[23], ga*xe[27]+gb*xe[31], gb*xe[27]+ga*xe[31]
	pxy0, pxy1, pxy2, pxy3 := ga*px0+gb*px2, ga*px1+gb*px3, gb*px0+ga*px2, gb*px1+ga*px3
	pxy4, pxy5, pxy6, pxy7 := ga*px4+gb*px6, ga*px5+gb*px7, gb*px4+ga*px6, gb*px5+ga*px7
	p0, p1, p2, p3 := ga*pxy0+gb*pxy4, ga*pxy1+gb*pxy5, ga*pxy2+gb*pxy6, ga*pxy3+gb*pxy7
	p4, p5, p6, p7 := gb*pxy0+ga*pxy4, gb*pxy1+ga*pxy5, gb*pxy2+ga*pxy6, gb*pxy3+ga*pxy7
	w0, w1, w2, w3 := g.Q[0].W, g.Q[1].W, g.Q[2].W, g.Q[3].W
	wp0, wp1, wp2, wp3 := w0*p0, w1*p1, w2*p2, w3*p3
	w4, w5, w6, w7 := g.Q[4].W, g.Q[5].W, g.Q[6].W, g.Q[7].W
	wp4, wp5, wp6, wp7 := w4*p4, w5*p5, w6*p6, w7*p7
	sc := (wp0 + wp1 + wp2 + wp3 + wp4 + wp5 + wp6 + wp7) * inv / g.Vol

	// Per point: physical gradient, stress, and the flux F = S J^{-T}
	// summed along each Gauss line (f{i}{d}{e}); the pressure-row residual r{q}.
	var f000, f001, f002, f003 float64
	var f010, f011, f012, f013 float64
	var f020, f021, f022, f023 float64
	var f100, f101, f102, f103 float64
	var f110, f111, f112, f113 float64
	var f120, f121, f122, f123 float64
	var f200, f201, f202, f203 float64
	var f210, f211, f212, f213 float64
	var f220, f221, f222, f223 float64
	var r0, r1, r2, r3, r4, r5, r6, r7 float64
	{
		J := &g.Q[0].Ji
		j00, j01, j02 := J[0][0], J[0][1], J[0][2]
		j10, j11, j12 := J[1][0], J[1][1], J[1][2]
		j20, j21, j22 := J[2][0], J[2][1], J[2][2]
		L00 := l000*j00 + l010*j10 + l020*j20
		L01 := l000*j01 + l010*j11 + l020*j21
		L02 := l000*j02 + l010*j12 + l020*j22
		L10 := l100*j00 + l110*j10 + l120*j20
		L11 := l100*j01 + l110*j11 + l120*j21
		L12 := l100*j02 + l110*j12 + l120*j22
		L20 := l200*j00 + l210*j10 + l220*j20
		L21 := l200*j01 + l210*j11 + l220*j21
		L22 := l200*j02 + l210*j12 + l220*j22
		we := w0 * eta
		s00 := 2*we*L00 - wp0
		s11 := 2*we*L11 - wp0
		s22 := 2*we*L22 - wp0
		s01 := we * (L01 + L10)
		s02 := we * (L02 + L20)
		s12 := we * (L12 + L21)
		f000 = s00*j00 + s01*j01 + s02*j02
		f010 = s00*j10 + s01*j11 + s02*j12
		f020 = s00*j20 + s01*j21 + s02*j22
		f100 = s01*j00 + s11*j01 + s12*j02
		f110 = s01*j10 + s11*j11 + s12*j12
		f120 = s01*j20 + s11*j21 + s12*j22
		f200 = s02*j00 + s12*j01 + s22*j02
		f210 = s02*j10 + s12*j11 + s22*j12
		f220 = s02*j20 + s12*j21 + s22*j22
		r0 = -w0*(L00+L11+L22) - inv*wp0 + sc*w0
	}
	{
		J := &g.Q[1].Ji
		j00, j01, j02 := J[0][0], J[0][1], J[0][2]
		j10, j11, j12 := J[1][0], J[1][1], J[1][2]
		j20, j21, j22 := J[2][0], J[2][1], J[2][2]
		L00 := l000*j00 + l011*j10 + l021*j20
		L01 := l000*j01 + l011*j11 + l021*j21
		L02 := l000*j02 + l011*j12 + l021*j22
		L10 := l100*j00 + l111*j10 + l121*j20
		L11 := l100*j01 + l111*j11 + l121*j21
		L12 := l100*j02 + l111*j12 + l121*j22
		L20 := l200*j00 + l211*j10 + l221*j20
		L21 := l200*j01 + l211*j11 + l221*j21
		L22 := l200*j02 + l211*j12 + l221*j22
		we := w1 * eta
		s00 := 2*we*L00 - wp1
		s11 := 2*we*L11 - wp1
		s22 := 2*we*L22 - wp1
		s01 := we * (L01 + L10)
		s02 := we * (L02 + L20)
		s12 := we * (L12 + L21)
		f000 += s00*j00 + s01*j01 + s02*j02
		f011 = s00*j10 + s01*j11 + s02*j12
		f021 = s00*j20 + s01*j21 + s02*j22
		f100 += s01*j00 + s11*j01 + s12*j02
		f111 = s01*j10 + s11*j11 + s12*j12
		f121 = s01*j20 + s11*j21 + s12*j22
		f200 += s02*j00 + s12*j01 + s22*j02
		f211 = s02*j10 + s12*j11 + s22*j12
		f221 = s02*j20 + s12*j21 + s22*j22
		r1 = -w1*(L00+L11+L22) - inv*wp1 + sc*w1
	}
	{
		J := &g.Q[2].Ji
		j00, j01, j02 := J[0][0], J[0][1], J[0][2]
		j10, j11, j12 := J[1][0], J[1][1], J[1][2]
		j20, j21, j22 := J[2][0], J[2][1], J[2][2]
		L00 := l001*j00 + l010*j10 + l022*j20
		L01 := l001*j01 + l010*j11 + l022*j21
		L02 := l001*j02 + l010*j12 + l022*j22
		L10 := l101*j00 + l110*j10 + l122*j20
		L11 := l101*j01 + l110*j11 + l122*j21
		L12 := l101*j02 + l110*j12 + l122*j22
		L20 := l201*j00 + l210*j10 + l222*j20
		L21 := l201*j01 + l210*j11 + l222*j21
		L22 := l201*j02 + l210*j12 + l222*j22
		we := w2 * eta
		s00 := 2*we*L00 - wp2
		s11 := 2*we*L11 - wp2
		s22 := 2*we*L22 - wp2
		s01 := we * (L01 + L10)
		s02 := we * (L02 + L20)
		s12 := we * (L12 + L21)
		f001 = s00*j00 + s01*j01 + s02*j02
		f010 += s00*j10 + s01*j11 + s02*j12
		f022 = s00*j20 + s01*j21 + s02*j22
		f101 = s01*j00 + s11*j01 + s12*j02
		f110 += s01*j10 + s11*j11 + s12*j12
		f122 = s01*j20 + s11*j21 + s12*j22
		f201 = s02*j00 + s12*j01 + s22*j02
		f210 += s02*j10 + s12*j11 + s22*j12
		f222 = s02*j20 + s12*j21 + s22*j22
		r2 = -w2*(L00+L11+L22) - inv*wp2 + sc*w2
	}
	{
		J := &g.Q[3].Ji
		j00, j01, j02 := J[0][0], J[0][1], J[0][2]
		j10, j11, j12 := J[1][0], J[1][1], J[1][2]
		j20, j21, j22 := J[2][0], J[2][1], J[2][2]
		L00 := l001*j00 + l011*j10 + l023*j20
		L01 := l001*j01 + l011*j11 + l023*j21
		L02 := l001*j02 + l011*j12 + l023*j22
		L10 := l101*j00 + l111*j10 + l123*j20
		L11 := l101*j01 + l111*j11 + l123*j21
		L12 := l101*j02 + l111*j12 + l123*j22
		L20 := l201*j00 + l211*j10 + l223*j20
		L21 := l201*j01 + l211*j11 + l223*j21
		L22 := l201*j02 + l211*j12 + l223*j22
		we := w3 * eta
		s00 := 2*we*L00 - wp3
		s11 := 2*we*L11 - wp3
		s22 := 2*we*L22 - wp3
		s01 := we * (L01 + L10)
		s02 := we * (L02 + L20)
		s12 := we * (L12 + L21)
		f001 += s00*j00 + s01*j01 + s02*j02
		f011 += s00*j10 + s01*j11 + s02*j12
		f023 = s00*j20 + s01*j21 + s02*j22
		f101 += s01*j00 + s11*j01 + s12*j02
		f111 += s01*j10 + s11*j11 + s12*j12
		f123 = s01*j20 + s11*j21 + s12*j22
		f201 += s02*j00 + s12*j01 + s22*j02
		f211 += s02*j10 + s12*j11 + s22*j12
		f223 = s02*j20 + s12*j21 + s22*j22
		r3 = -w3*(L00+L11+L22) - inv*wp3 + sc*w3
	}
	{
		J := &g.Q[4].Ji
		j00, j01, j02 := J[0][0], J[0][1], J[0][2]
		j10, j11, j12 := J[1][0], J[1][1], J[1][2]
		j20, j21, j22 := J[2][0], J[2][1], J[2][2]
		L00 := l002*j00 + l012*j10 + l020*j20
		L01 := l002*j01 + l012*j11 + l020*j21
		L02 := l002*j02 + l012*j12 + l020*j22
		L10 := l102*j00 + l112*j10 + l120*j20
		L11 := l102*j01 + l112*j11 + l120*j21
		L12 := l102*j02 + l112*j12 + l120*j22
		L20 := l202*j00 + l212*j10 + l220*j20
		L21 := l202*j01 + l212*j11 + l220*j21
		L22 := l202*j02 + l212*j12 + l220*j22
		we := w4 * eta
		s00 := 2*we*L00 - wp4
		s11 := 2*we*L11 - wp4
		s22 := 2*we*L22 - wp4
		s01 := we * (L01 + L10)
		s02 := we * (L02 + L20)
		s12 := we * (L12 + L21)
		f002 = s00*j00 + s01*j01 + s02*j02
		f012 = s00*j10 + s01*j11 + s02*j12
		f020 += s00*j20 + s01*j21 + s02*j22
		f102 = s01*j00 + s11*j01 + s12*j02
		f112 = s01*j10 + s11*j11 + s12*j12
		f120 += s01*j20 + s11*j21 + s12*j22
		f202 = s02*j00 + s12*j01 + s22*j02
		f212 = s02*j10 + s12*j11 + s22*j12
		f220 += s02*j20 + s12*j21 + s22*j22
		r4 = -w4*(L00+L11+L22) - inv*wp4 + sc*w4
	}
	{
		J := &g.Q[5].Ji
		j00, j01, j02 := J[0][0], J[0][1], J[0][2]
		j10, j11, j12 := J[1][0], J[1][1], J[1][2]
		j20, j21, j22 := J[2][0], J[2][1], J[2][2]
		L00 := l002*j00 + l013*j10 + l021*j20
		L01 := l002*j01 + l013*j11 + l021*j21
		L02 := l002*j02 + l013*j12 + l021*j22
		L10 := l102*j00 + l113*j10 + l121*j20
		L11 := l102*j01 + l113*j11 + l121*j21
		L12 := l102*j02 + l113*j12 + l121*j22
		L20 := l202*j00 + l213*j10 + l221*j20
		L21 := l202*j01 + l213*j11 + l221*j21
		L22 := l202*j02 + l213*j12 + l221*j22
		we := w5 * eta
		s00 := 2*we*L00 - wp5
		s11 := 2*we*L11 - wp5
		s22 := 2*we*L22 - wp5
		s01 := we * (L01 + L10)
		s02 := we * (L02 + L20)
		s12 := we * (L12 + L21)
		f002 += s00*j00 + s01*j01 + s02*j02
		f013 = s00*j10 + s01*j11 + s02*j12
		f021 += s00*j20 + s01*j21 + s02*j22
		f102 += s01*j00 + s11*j01 + s12*j02
		f113 = s01*j10 + s11*j11 + s12*j12
		f121 += s01*j20 + s11*j21 + s12*j22
		f202 += s02*j00 + s12*j01 + s22*j02
		f213 = s02*j10 + s12*j11 + s22*j12
		f221 += s02*j20 + s12*j21 + s22*j22
		r5 = -w5*(L00+L11+L22) - inv*wp5 + sc*w5
	}
	{
		J := &g.Q[6].Ji
		j00, j01, j02 := J[0][0], J[0][1], J[0][2]
		j10, j11, j12 := J[1][0], J[1][1], J[1][2]
		j20, j21, j22 := J[2][0], J[2][1], J[2][2]
		L00 := l003*j00 + l012*j10 + l022*j20
		L01 := l003*j01 + l012*j11 + l022*j21
		L02 := l003*j02 + l012*j12 + l022*j22
		L10 := l103*j00 + l112*j10 + l122*j20
		L11 := l103*j01 + l112*j11 + l122*j21
		L12 := l103*j02 + l112*j12 + l122*j22
		L20 := l203*j00 + l212*j10 + l222*j20
		L21 := l203*j01 + l212*j11 + l222*j21
		L22 := l203*j02 + l212*j12 + l222*j22
		we := w6 * eta
		s00 := 2*we*L00 - wp6
		s11 := 2*we*L11 - wp6
		s22 := 2*we*L22 - wp6
		s01 := we * (L01 + L10)
		s02 := we * (L02 + L20)
		s12 := we * (L12 + L21)
		f003 = s00*j00 + s01*j01 + s02*j02
		f012 += s00*j10 + s01*j11 + s02*j12
		f022 += s00*j20 + s01*j21 + s02*j22
		f103 = s01*j00 + s11*j01 + s12*j02
		f112 += s01*j10 + s11*j11 + s12*j12
		f122 += s01*j20 + s11*j21 + s12*j22
		f203 = s02*j00 + s12*j01 + s22*j02
		f212 += s02*j10 + s12*j11 + s22*j12
		f222 += s02*j20 + s12*j21 + s22*j22
		r6 = -w6*(L00+L11+L22) - inv*wp6 + sc*w6
	}
	{
		J := &g.Q[7].Ji
		j00, j01, j02 := J[0][0], J[0][1], J[0][2]
		j10, j11, j12 := J[1][0], J[1][1], J[1][2]
		j20, j21, j22 := J[2][0], J[2][1], J[2][2]
		L00 := l003*j00 + l013*j10 + l023*j20
		L01 := l003*j01 + l013*j11 + l023*j21
		L02 := l003*j02 + l013*j12 + l023*j22
		L10 := l103*j00 + l113*j10 + l123*j20
		L11 := l103*j01 + l113*j11 + l123*j21
		L12 := l103*j02 + l113*j12 + l123*j22
		L20 := l203*j00 + l213*j10 + l223*j20
		L21 := l203*j01 + l213*j11 + l223*j21
		L22 := l203*j02 + l213*j12 + l223*j22
		we := w7 * eta
		s00 := 2*we*L00 - wp7
		s11 := 2*we*L11 - wp7
		s22 := 2*we*L22 - wp7
		s01 := we * (L01 + L10)
		s02 := we * (L02 + L20)
		s12 := we * (L12 + L21)
		f003 += s00*j00 + s01*j01 + s02*j02
		f013 += s00*j10 + s01*j11 + s02*j12
		f023 += s00*j20 + s01*j21 + s02*j22
		f103 += s01*j00 + s11*j01 + s12*j02
		f113 += s01*j10 + s11*j11 + s12*j12
		f123 += s01*j20 + s11*j21 + s12*j22
		f203 += s02*j00 + s12*j01 + s22*j02
		f213 += s02*j10 + s12*j11 + s22*j12
		f223 += s02*j20 + s12*j21 + s22*j22
		r7 = -w7*(L00+L11+L22) - inv*wp7 + sc*w7
	}

	// Transposed passes: the line sums interpolated back to the edges
	// (g{i}{d}{e}) and tested against the reference shape gradients, +1
	// at each edge's upper corner and -1 at its lower one; r against the
	// shape values.
	a0, a1, a2, a3 = ga*f000+gb*f001, gb*f000+ga*f001, ga*f002+gb*f003, gb*f002+ga*f003
	g000, g001, g002, g003 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	a0, a1, a2, a3 = ga*f010+gb*f011, gb*f010+ga*f011, ga*f012+gb*f013, gb*f012+ga*f013
	g010, g011, g012, g013 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	a0, a1, a2, a3 = ga*f020+gb*f021, gb*f020+ga*f021, ga*f022+gb*f023, gb*f022+ga*f023
	g020, g021, g022, g023 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	a0, a1, a2, a3 = ga*f100+gb*f101, gb*f100+ga*f101, ga*f102+gb*f103, gb*f102+ga*f103
	g100, g101, g102, g103 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	a0, a1, a2, a3 = ga*f110+gb*f111, gb*f110+ga*f111, ga*f112+gb*f113, gb*f112+ga*f113
	g110, g111, g112, g113 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	a0, a1, a2, a3 = ga*f120+gb*f121, gb*f120+ga*f121, ga*f122+gb*f123, gb*f122+ga*f123
	g120, g121, g122, g123 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	a0, a1, a2, a3 = ga*f200+gb*f201, gb*f200+ga*f201, ga*f202+gb*f203, gb*f202+ga*f203
	g200, g201, g202, g203 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	a0, a1, a2, a3 = ga*f210+gb*f211, gb*f210+ga*f211, ga*f212+gb*f213, gb*f212+ga*f213
	g210, g211, g212, g213 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	a0, a1, a2, a3 = ga*f220+gb*f221, gb*f220+ga*f221, ga*f222+gb*f223, gb*f222+ga*f223
	g220, g221, g222, g223 := ga*a0+gb*a2, ga*a1+gb*a3, gb*a0+ga*a2, gb*a1+ga*a3
	ye[0] = -g000 - g010 - g020
	ye[1] = -g100 - g110 - g120
	ye[2] = -g200 - g210 - g220
	ye[4] = g000 - g011 - g021
	ye[5] = g100 - g111 - g121
	ye[6] = g200 - g211 - g221
	ye[8] = -g001 + g010 - g022
	ye[9] = -g101 + g110 - g122
	ye[10] = -g201 + g210 - g222
	ye[12] = g001 + g011 - g023
	ye[13] = g101 + g111 - g123
	ye[14] = g201 + g211 - g223
	ye[16] = -g002 - g012 + g020
	ye[17] = -g102 - g112 + g120
	ye[18] = -g202 - g212 + g220
	ye[20] = g002 - g013 + g021
	ye[21] = g102 - g113 + g121
	ye[22] = g202 - g213 + g221
	ye[24] = -g003 + g012 + g022
	ye[25] = -g103 + g112 + g122
	ye[26] = -g203 + g212 + g222
	ye[28] = g003 + g013 + g023
	ye[29] = g103 + g113 + g123
	ye[30] = g203 + g213 + g223
	rx0, rx1, rx2, rx3 := ga*r0+gb*r1, gb*r0+ga*r1, ga*r2+gb*r3, gb*r2+ga*r3
	rx4, rx5, rx6, rx7 := ga*r4+gb*r5, gb*r4+ga*r5, ga*r6+gb*r7, gb*r6+ga*r7
	rxy0, rxy1, rxy2, rxy3 := ga*rx0+gb*rx2, ga*rx1+gb*rx3, gb*rx0+ga*rx2, gb*rx1+ga*rx3
	rxy4, rxy5, rxy6, rxy7 := ga*rx4+gb*rx6, ga*rx5+gb*rx7, gb*rx4+ga*rx6, gb*rx5+ga*rx7
	ye[3], ye[7], ye[11], ye[15] = ga*rxy0+gb*rxy4, ga*rxy1+gb*rxy5, ga*rxy2+gb*rxy6, ga*rxy3+gb*rxy7
	ye[19], ye[23], ye[27], ye[31] = gb*rxy0+ga*rxy4, gb*rxy1+ga*rxy5, gb*rxy2+ga*rxy6, gb*rxy3+ga*rxy7
}
