// Code generated by gen_levelkernel.go; DO NOT EDIT.

package gmg

// applyElems1 accumulates acc += sum_e C_e^T (eta_e K_e) C_e x for one
// field in slot space: gather the eight corner values, multiply by the
// scaled kernel, scatter. An independent corner reads its slot straight
// from the mesh's corner row (C_e selects it: weight exactly 1, so
// skipping the multiply changes no bit); a hanging one runs its masters
// from the mesh's Hang table. Row a of K times xe is summed from zero in
// corner order, reading the packed triangle at fixed offsets, scaled by
// eta and scattered.
func (lv *level) applyElems1(x, acc []float64) {
	rows, hang := lv.mesh.Rows, lv.mesh.Hang
	for ei := range rows {
		row := &rows[ei]
		var xe [8]float64
		for a := 0; a < 8; a++ {
			if s := row[a]; s >= 0 {
				xe[a] = x[s]
			} else {
				xe[a] = hang[^s].Value(x)
			}
		}
		K, eta := &lv.kern[lv.kidx[ei]], lv.eta[ei]
		{
			var s float64
			s += K[0] * xe[0]
			s += K[1] * xe[1]
			s += K[2] * xe[2]
			s += K[3] * xe[3]
			s += K[4] * xe[4]
			s += K[5] * xe[5]
			s += K[6] * xe[6]
			s += K[7] * xe[7]
			s *= eta
			if r := row[0]; r >= 0 {
				acc[r] += s
			} else {
				scatterHang1(acc, &hang[^r], s)
			}
		}
		{
			var s float64
			s += K[1] * xe[0]
			s += K[8] * xe[1]
			s += K[9] * xe[2]
			s += K[10] * xe[3]
			s += K[11] * xe[4]
			s += K[12] * xe[5]
			s += K[13] * xe[6]
			s += K[14] * xe[7]
			s *= eta
			if r := row[1]; r >= 0 {
				acc[r] += s
			} else {
				scatterHang1(acc, &hang[^r], s)
			}
		}
		{
			var s float64
			s += K[2] * xe[0]
			s += K[9] * xe[1]
			s += K[15] * xe[2]
			s += K[16] * xe[3]
			s += K[17] * xe[4]
			s += K[18] * xe[5]
			s += K[19] * xe[6]
			s += K[20] * xe[7]
			s *= eta
			if r := row[2]; r >= 0 {
				acc[r] += s
			} else {
				scatterHang1(acc, &hang[^r], s)
			}
		}
		{
			var s float64
			s += K[3] * xe[0]
			s += K[10] * xe[1]
			s += K[16] * xe[2]
			s += K[21] * xe[3]
			s += K[22] * xe[4]
			s += K[23] * xe[5]
			s += K[24] * xe[6]
			s += K[25] * xe[7]
			s *= eta
			if r := row[3]; r >= 0 {
				acc[r] += s
			} else {
				scatterHang1(acc, &hang[^r], s)
			}
		}
		{
			var s float64
			s += K[4] * xe[0]
			s += K[11] * xe[1]
			s += K[17] * xe[2]
			s += K[22] * xe[3]
			s += K[26] * xe[4]
			s += K[27] * xe[5]
			s += K[28] * xe[6]
			s += K[29] * xe[7]
			s *= eta
			if r := row[4]; r >= 0 {
				acc[r] += s
			} else {
				scatterHang1(acc, &hang[^r], s)
			}
		}
		{
			var s float64
			s += K[5] * xe[0]
			s += K[12] * xe[1]
			s += K[18] * xe[2]
			s += K[23] * xe[3]
			s += K[27] * xe[4]
			s += K[30] * xe[5]
			s += K[31] * xe[6]
			s += K[32] * xe[7]
			s *= eta
			if r := row[5]; r >= 0 {
				acc[r] += s
			} else {
				scatterHang1(acc, &hang[^r], s)
			}
		}
		{
			var s float64
			s += K[6] * xe[0]
			s += K[13] * xe[1]
			s += K[19] * xe[2]
			s += K[24] * xe[3]
			s += K[28] * xe[4]
			s += K[31] * xe[5]
			s += K[33] * xe[6]
			s += K[34] * xe[7]
			s *= eta
			if r := row[6]; r >= 0 {
				acc[r] += s
			} else {
				scatterHang1(acc, &hang[^r], s)
			}
		}
		{
			var s float64
			s += K[7] * xe[0]
			s += K[14] * xe[1]
			s += K[20] * xe[2]
			s += K[25] * xe[3]
			s += K[29] * xe[4]
			s += K[32] * xe[5]
			s += K[34] * xe[6]
			s += K[35] * xe[7]
			s *= eta
			if r := row[7]; r >= 0 {
				acc[r] += s
			} else {
				scatterHang1(acc, &hang[^r], s)
			}
		}
	}
}

// applyRange3 is applyElems1 for three interleaved fields, over the
// elements [lo, hi): every corner gathers three values and every kernel
// entry multiplies all three, so the corner rows and kernels are
// streamed once for the whole velocity block. Per field it is the same
// sum as applyElems1's, in the same order.
func (lv *level) applyRange3(x, acc []float64, lo, hi int) {
	rows, hang := lv.mesh.Rows, lv.mesh.Hang
	for ei := lo; ei < hi; ei++ {
		row := &rows[ei]
		var xe [8][3]float64
		for a := 0; a < 8; a++ {
			if s := row[a]; s >= 0 {
				p := x[3*int(s) : 3*int(s)+3]
				xe[a] = [3]float64{p[0], p[1], p[2]}
				continue
			}
			h := &hang[^row[a]]
			w := h.W()
			var v0, v1, v2 float64
			for k := 0; k < int(h.N); k++ {
				p := x[3*int(h.Slot[k]) : 3*int(h.Slot[k])+3]
				v0 += w * p[0]
				v1 += w * p[1]
				v2 += w * p[2]
			}
			xe[a] = [3]float64{v0, v1, v2}
		}
		K, eta := &lv.kern[lv.kidx[ei]], lv.eta[ei]
		{
			var s0, s1, s2, k float64
			k = K[0]
			s0 += k * xe[0][0]
			s1 += k * xe[0][1]
			s2 += k * xe[0][2]
			k = K[1]
			s0 += k * xe[1][0]
			s1 += k * xe[1][1]
			s2 += k * xe[1][2]
			k = K[2]
			s0 += k * xe[2][0]
			s1 += k * xe[2][1]
			s2 += k * xe[2][2]
			k = K[3]
			s0 += k * xe[3][0]
			s1 += k * xe[3][1]
			s2 += k * xe[3][2]
			k = K[4]
			s0 += k * xe[4][0]
			s1 += k * xe[4][1]
			s2 += k * xe[4][2]
			k = K[5]
			s0 += k * xe[5][0]
			s1 += k * xe[5][1]
			s2 += k * xe[5][2]
			k = K[6]
			s0 += k * xe[6][0]
			s1 += k * xe[6][1]
			s2 += k * xe[6][2]
			k = K[7]
			s0 += k * xe[7][0]
			s1 += k * xe[7][1]
			s2 += k * xe[7][2]
			s0 *= eta
			s1 *= eta
			s2 *= eta
			if r := row[0]; r >= 0 {
				p := acc[3*int(r) : 3*int(r)+3]
				p[0] += s0
				p[1] += s1
				p[2] += s2
			} else {
				scatterHang3(acc, &hang[^r], s0, s1, s2)
			}
		}
		{
			var s0, s1, s2, k float64
			k = K[1]
			s0 += k * xe[0][0]
			s1 += k * xe[0][1]
			s2 += k * xe[0][2]
			k = K[8]
			s0 += k * xe[1][0]
			s1 += k * xe[1][1]
			s2 += k * xe[1][2]
			k = K[9]
			s0 += k * xe[2][0]
			s1 += k * xe[2][1]
			s2 += k * xe[2][2]
			k = K[10]
			s0 += k * xe[3][0]
			s1 += k * xe[3][1]
			s2 += k * xe[3][2]
			k = K[11]
			s0 += k * xe[4][0]
			s1 += k * xe[4][1]
			s2 += k * xe[4][2]
			k = K[12]
			s0 += k * xe[5][0]
			s1 += k * xe[5][1]
			s2 += k * xe[5][2]
			k = K[13]
			s0 += k * xe[6][0]
			s1 += k * xe[6][1]
			s2 += k * xe[6][2]
			k = K[14]
			s0 += k * xe[7][0]
			s1 += k * xe[7][1]
			s2 += k * xe[7][2]
			s0 *= eta
			s1 *= eta
			s2 *= eta
			if r := row[1]; r >= 0 {
				p := acc[3*int(r) : 3*int(r)+3]
				p[0] += s0
				p[1] += s1
				p[2] += s2
			} else {
				scatterHang3(acc, &hang[^r], s0, s1, s2)
			}
		}
		{
			var s0, s1, s2, k float64
			k = K[2]
			s0 += k * xe[0][0]
			s1 += k * xe[0][1]
			s2 += k * xe[0][2]
			k = K[9]
			s0 += k * xe[1][0]
			s1 += k * xe[1][1]
			s2 += k * xe[1][2]
			k = K[15]
			s0 += k * xe[2][0]
			s1 += k * xe[2][1]
			s2 += k * xe[2][2]
			k = K[16]
			s0 += k * xe[3][0]
			s1 += k * xe[3][1]
			s2 += k * xe[3][2]
			k = K[17]
			s0 += k * xe[4][0]
			s1 += k * xe[4][1]
			s2 += k * xe[4][2]
			k = K[18]
			s0 += k * xe[5][0]
			s1 += k * xe[5][1]
			s2 += k * xe[5][2]
			k = K[19]
			s0 += k * xe[6][0]
			s1 += k * xe[6][1]
			s2 += k * xe[6][2]
			k = K[20]
			s0 += k * xe[7][0]
			s1 += k * xe[7][1]
			s2 += k * xe[7][2]
			s0 *= eta
			s1 *= eta
			s2 *= eta
			if r := row[2]; r >= 0 {
				p := acc[3*int(r) : 3*int(r)+3]
				p[0] += s0
				p[1] += s1
				p[2] += s2
			} else {
				scatterHang3(acc, &hang[^r], s0, s1, s2)
			}
		}
		{
			var s0, s1, s2, k float64
			k = K[3]
			s0 += k * xe[0][0]
			s1 += k * xe[0][1]
			s2 += k * xe[0][2]
			k = K[10]
			s0 += k * xe[1][0]
			s1 += k * xe[1][1]
			s2 += k * xe[1][2]
			k = K[16]
			s0 += k * xe[2][0]
			s1 += k * xe[2][1]
			s2 += k * xe[2][2]
			k = K[21]
			s0 += k * xe[3][0]
			s1 += k * xe[3][1]
			s2 += k * xe[3][2]
			k = K[22]
			s0 += k * xe[4][0]
			s1 += k * xe[4][1]
			s2 += k * xe[4][2]
			k = K[23]
			s0 += k * xe[5][0]
			s1 += k * xe[5][1]
			s2 += k * xe[5][2]
			k = K[24]
			s0 += k * xe[6][0]
			s1 += k * xe[6][1]
			s2 += k * xe[6][2]
			k = K[25]
			s0 += k * xe[7][0]
			s1 += k * xe[7][1]
			s2 += k * xe[7][2]
			s0 *= eta
			s1 *= eta
			s2 *= eta
			if r := row[3]; r >= 0 {
				p := acc[3*int(r) : 3*int(r)+3]
				p[0] += s0
				p[1] += s1
				p[2] += s2
			} else {
				scatterHang3(acc, &hang[^r], s0, s1, s2)
			}
		}
		{
			var s0, s1, s2, k float64
			k = K[4]
			s0 += k * xe[0][0]
			s1 += k * xe[0][1]
			s2 += k * xe[0][2]
			k = K[11]
			s0 += k * xe[1][0]
			s1 += k * xe[1][1]
			s2 += k * xe[1][2]
			k = K[17]
			s0 += k * xe[2][0]
			s1 += k * xe[2][1]
			s2 += k * xe[2][2]
			k = K[22]
			s0 += k * xe[3][0]
			s1 += k * xe[3][1]
			s2 += k * xe[3][2]
			k = K[26]
			s0 += k * xe[4][0]
			s1 += k * xe[4][1]
			s2 += k * xe[4][2]
			k = K[27]
			s0 += k * xe[5][0]
			s1 += k * xe[5][1]
			s2 += k * xe[5][2]
			k = K[28]
			s0 += k * xe[6][0]
			s1 += k * xe[6][1]
			s2 += k * xe[6][2]
			k = K[29]
			s0 += k * xe[7][0]
			s1 += k * xe[7][1]
			s2 += k * xe[7][2]
			s0 *= eta
			s1 *= eta
			s2 *= eta
			if r := row[4]; r >= 0 {
				p := acc[3*int(r) : 3*int(r)+3]
				p[0] += s0
				p[1] += s1
				p[2] += s2
			} else {
				scatterHang3(acc, &hang[^r], s0, s1, s2)
			}
		}
		{
			var s0, s1, s2, k float64
			k = K[5]
			s0 += k * xe[0][0]
			s1 += k * xe[0][1]
			s2 += k * xe[0][2]
			k = K[12]
			s0 += k * xe[1][0]
			s1 += k * xe[1][1]
			s2 += k * xe[1][2]
			k = K[18]
			s0 += k * xe[2][0]
			s1 += k * xe[2][1]
			s2 += k * xe[2][2]
			k = K[23]
			s0 += k * xe[3][0]
			s1 += k * xe[3][1]
			s2 += k * xe[3][2]
			k = K[27]
			s0 += k * xe[4][0]
			s1 += k * xe[4][1]
			s2 += k * xe[4][2]
			k = K[30]
			s0 += k * xe[5][0]
			s1 += k * xe[5][1]
			s2 += k * xe[5][2]
			k = K[31]
			s0 += k * xe[6][0]
			s1 += k * xe[6][1]
			s2 += k * xe[6][2]
			k = K[32]
			s0 += k * xe[7][0]
			s1 += k * xe[7][1]
			s2 += k * xe[7][2]
			s0 *= eta
			s1 *= eta
			s2 *= eta
			if r := row[5]; r >= 0 {
				p := acc[3*int(r) : 3*int(r)+3]
				p[0] += s0
				p[1] += s1
				p[2] += s2
			} else {
				scatterHang3(acc, &hang[^r], s0, s1, s2)
			}
		}
		{
			var s0, s1, s2, k float64
			k = K[6]
			s0 += k * xe[0][0]
			s1 += k * xe[0][1]
			s2 += k * xe[0][2]
			k = K[13]
			s0 += k * xe[1][0]
			s1 += k * xe[1][1]
			s2 += k * xe[1][2]
			k = K[19]
			s0 += k * xe[2][0]
			s1 += k * xe[2][1]
			s2 += k * xe[2][2]
			k = K[24]
			s0 += k * xe[3][0]
			s1 += k * xe[3][1]
			s2 += k * xe[3][2]
			k = K[28]
			s0 += k * xe[4][0]
			s1 += k * xe[4][1]
			s2 += k * xe[4][2]
			k = K[31]
			s0 += k * xe[5][0]
			s1 += k * xe[5][1]
			s2 += k * xe[5][2]
			k = K[33]
			s0 += k * xe[6][0]
			s1 += k * xe[6][1]
			s2 += k * xe[6][2]
			k = K[34]
			s0 += k * xe[7][0]
			s1 += k * xe[7][1]
			s2 += k * xe[7][2]
			s0 *= eta
			s1 *= eta
			s2 *= eta
			if r := row[6]; r >= 0 {
				p := acc[3*int(r) : 3*int(r)+3]
				p[0] += s0
				p[1] += s1
				p[2] += s2
			} else {
				scatterHang3(acc, &hang[^r], s0, s1, s2)
			}
		}
		{
			var s0, s1, s2, k float64
			k = K[7]
			s0 += k * xe[0][0]
			s1 += k * xe[0][1]
			s2 += k * xe[0][2]
			k = K[14]
			s0 += k * xe[1][0]
			s1 += k * xe[1][1]
			s2 += k * xe[1][2]
			k = K[20]
			s0 += k * xe[2][0]
			s1 += k * xe[2][1]
			s2 += k * xe[2][2]
			k = K[25]
			s0 += k * xe[3][0]
			s1 += k * xe[3][1]
			s2 += k * xe[3][2]
			k = K[29]
			s0 += k * xe[4][0]
			s1 += k * xe[4][1]
			s2 += k * xe[4][2]
			k = K[32]
			s0 += k * xe[5][0]
			s1 += k * xe[5][1]
			s2 += k * xe[5][2]
			k = K[34]
			s0 += k * xe[6][0]
			s1 += k * xe[6][1]
			s2 += k * xe[6][2]
			k = K[35]
			s0 += k * xe[7][0]
			s1 += k * xe[7][1]
			s2 += k * xe[7][2]
			s0 *= eta
			s1 *= eta
			s2 *= eta
			if r := row[7]; r >= 0 {
				p := acc[3*int(r) : 3*int(r)+3]
				p[0] += s0
				p[1] += s1
				p[2] += s2
			} else {
				scatterHang3(acc, &hang[^r], s0, s1, s2)
			}
		}
	}
}
