package la

// GatherGlobalCSR replicates the fully assembled distributed matrix as a
// serial CSR on every rank (collective). Row and column indices are
// global. This backs the "redundant" preconditioner setup: at the scales
// this repository runs, replicating the (scalar) preconditioner operator
// is cheap, and it makes the AMG hierarchy — and therefore the Krylov
// iteration counts — independent of the rank count, which is the paper's
// global-BoomerAMG behaviour.
func (m *Mat) GatherGlobalCSR() *CSR {
	if !m.assembled {
		panic("la: GatherGlobalCSR before Assemble")
	}
	r := m.Layout.rank
	p := r.Size()
	type rowsMsg struct {
		Start  int64
		RowPtr []int32
		Cols   []int64
		Vals   []float64
	}
	// Flatten local rows with global column ids.
	msg := rowsMsg{Start: m.Layout.Start(), RowPtr: append([]int32(nil), m.rowPtr...)}
	msg.Cols = make([]int64, len(m.colIdx))
	nLoc, ghosts := m.Layout.Local(), m.gx.Ghosts()
	for k, s := range m.colIdx {
		if int(s) < nLoc {
			msg.Cols[k] = m.Layout.Start() + int64(s)
		} else {
			msg.Cols[k] = ghosts[int(s)-nLoc]
		}
	}
	msg.Vals = append([]float64(nil), m.vals...)

	in := r.Allgather(msg, 16*len(msg.Vals)+4*len(msg.RowPtr))

	n := int(m.Layout.N())
	c := &CSR{N: n, RowPtr: make([]int32, n+1)}
	// Count per-row entries.
	parts := make([]rowsMsg, p)
	for i := 0; i < p; i++ {
		parts[i] = in[i].(rowsMsg)
		pm := parts[i]
		rows := len(pm.RowPtr) - 1
		for li := 0; li < rows; li++ {
			c.RowPtr[pm.Start+int64(li)+1] = pm.RowPtr[li+1] - pm.RowPtr[li]
		}
	}
	for i := 0; i < n; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	c.ColIdx = make([]int32, c.RowPtr[n])
	c.Vals = make([]float64, c.RowPtr[n])
	for i := 0; i < p; i++ {
		pm := parts[i]
		rows := len(pm.RowPtr) - 1
		for li := 0; li < rows; li++ {
			dst := c.RowPtr[pm.Start+int64(li)]
			for k := pm.RowPtr[li]; k < pm.RowPtr[li+1]; k++ {
				c.ColIdx[dst] = int32(pm.Cols[k])
				c.Vals[dst] = pm.Vals[k]
				dst++
			}
		}
	}
	return c
}

// GatherGlobal replicates a distributed vector as a plain slice on every
// rank (collective).
func GatherGlobal(v *Vec) []float64 {
	r := v.Layout.rank
	p := r.Size()
	// Send an immutable snapshot: callers may reuse v.Data immediately
	// after this returns, while remote ranks read the message later.
	snap := append([]float64(nil), v.Data...)
	in := r.Allgather(snap, 8*len(snap))
	full := make([]float64, v.Layout.N())
	for i := 0; i < p; i++ {
		d := in[i].([]float64)
		copy(full[v.Layout.Offsets[i]:], d)
	}
	return full
}
