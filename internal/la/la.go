// Package la provides the distributed sparse linear-algebra substrate
// (the PETSc-like layer the paper's solvers sit on): row-distributed
// vectors and CSR matrices with off-rank assembly buffering, ghost-value
// exchange for parallel matrix-vector products, and the reductions Krylov
// methods need.
//
// Every object is associated with a Layout: a partition of the global
// index range [0, N) into one contiguous block per rank.
package la

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"rhea/internal/sim"
)

// Layout describes the row distribution: rank i owns [Offsets[i], Offsets[i+1]).
type Layout struct {
	rank    *sim.Rank
	Offsets []int64 // length Size+1
}

// NewLayout builds a layout from the local block size (collective).
func NewLayout(r *sim.Rank, nLocal int) *Layout {
	counts := r.AllgatherInt64(int64(nLocal))
	off := make([]int64, r.Size()+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return &Layout{rank: r, Offsets: off}
}

// Rank returns the communicator rank.
func (l *Layout) Rank() *sim.Rank { return l.rank }

// N returns the global size.
func (l *Layout) N() int64 { return l.Offsets[len(l.Offsets)-1] }

// Local returns this rank's block size.
func (l *Layout) Local() int { return int(l.Offsets[l.rank.ID()+1] - l.Offsets[l.rank.ID()]) }

// Start returns the first global index owned by this rank.
func (l *Layout) Start() int64 { return l.Offsets[l.rank.ID()] }

// Owns reports whether the global index is owned by this rank.
func (l *Layout) Owns(g int64) bool {
	return g >= l.Offsets[l.rank.ID()] && g < l.Offsets[l.rank.ID()+1]
}

// OwnerOf returns the rank owning global index g.
func (l *Layout) OwnerOf(g int64) int {
	i := sort.Search(len(l.Offsets), func(i int) bool { return l.Offsets[i] > g }) - 1
	if i < 0 || i >= l.rank.Size() {
		panic(fmt.Sprintf("la: global index %d outside layout [0,%d)", g, l.N()))
	}
	return i
}

// Vec is a distributed vector: this rank stores the entries of its layout
// block.
type Vec struct {
	Layout *Layout
	Data   []float64 // length Layout.Local()
}

// NewVec allocates a zero vector on the layout.
func NewVec(l *Layout) *Vec {
	return &Vec{Layout: l, Data: make([]float64, l.Local())}
}

// NewVecFromOwned builds a vector on the layout from this rank's owned
// entries, validating the block size. Deserialization paths (checkpoint
// restore) use this so a stale or foreign data slice fails loudly
// instead of silently truncating or zero-padding the block. The slice
// is copied; the caller keeps ownership of data.
func NewVecFromOwned(l *Layout, data []float64) (*Vec, error) {
	if len(data) != l.Local() {
		return nil, fmt.Errorf("la: %d owned values for a layout block of %d", len(data), l.Local())
	}
	v := NewVec(l)
	copy(v.Data, data)
	return v, nil
}

// Clone returns a deep copy.
func (v *Vec) Clone() *Vec {
	w := NewVec(v.Layout)
	copy(w.Data, v.Data)
	return w
}

// Copy copies src into v (same layout).
func (v *Vec) Copy(src *Vec) { copy(v.Data, src.Data) }

// Zero sets all local entries to zero.
func (v *Vec) Zero() {
	for i := range v.Data {
		v.Data[i] = 0
	}
}

// Set fills the vector with a constant.
func (v *Vec) Set(a float64) {
	for i := range v.Data {
		v.Data[i] = a
	}
}

// AXPY computes v += a*x.
func (v *Vec) AXPY(a float64, x *Vec) {
	for i, xv := range x.Data {
		v.Data[i] += a * xv
	}
}

// AYPX computes v = a*v + x.
func (v *Vec) AYPX(a float64, x *Vec) {
	for i := range v.Data {
		v.Data[i] = a*v.Data[i] + x.Data[i]
	}
}

// Scale multiplies v by a.
func (v *Vec) Scale(a float64) {
	for i := range v.Data {
		v.Data[i] *= a
	}
}

// PointwiseMult sets v[i] = x[i]*y[i].
func (v *Vec) PointwiseMult(x, y *Vec) {
	for i := range v.Data {
		v.Data[i] = x.Data[i] * y.Data[i]
	}
}

// Dot returns the global inner product (collective).
func (v *Vec) Dot(w *Vec) float64 {
	var s float64
	for i, a := range v.Data {
		s += a * w.Data[i]
	}
	return v.Layout.rank.Allreduce(s, sim.OpSum)
}

// Norm2 returns the global Euclidean norm (collective).
func (v *Vec) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// NormInf returns the global max-abs entry (collective).
func (v *Vec) NormInf() float64 {
	var m float64
	for _, a := range v.Data {
		if x := math.Abs(a); x > m {
			m = x
		}
	}
	return v.Layout.rank.Allreduce(m, sim.OpMax)
}

// triplet is a buffered off-rank contribution.
type triplet struct {
	Row, Col int64
	Val      float64
}

// Mat is a distributed CSR matrix under assembly or assembled. Rows
// follow the layout; columns are global indices mapped to local slots.
// Build with AddValue (duplicates accumulate), then call Assemble once.
type Mat struct {
	Layout *Layout

	// assembly state: per-row map of global col -> value
	build  []map[int64]float64
	remote []triplet // contributions to rows owned elsewhere

	// assembled CSR
	rowPtr []int32
	colIdx []int32 // local column slots
	vals   []float64

	// Column slots: an owned column's slot is its local index, the
	// distinct off-rank columns follow in ascending global order — the
	// ghost slots of gx, which fills that tail of xbuf.
	gx *GhostExchange

	assembled bool
	xbuf      []float64 // slot-indexed work buffer for Apply
}

// NewMat creates an empty matrix on the layout.
func NewMat(l *Layout) *Mat {
	m := &Mat{Layout: l}
	m.build = make([]map[int64]float64, l.Local())
	return m
}

// AddValue accumulates v into entry (grow, gcol) of the global matrix.
// Contributions to rows owned by other ranks are buffered and routed at
// Assemble time.
func (m *Mat) AddValue(grow, gcol int64, v float64) {
	if m.assembled {
		panic("la: AddValue after Assemble")
	}
	if v == 0 {
		return
	}
	if m.Layout.Owns(grow) {
		i := int(grow - m.Layout.Start())
		if m.build[i] == nil {
			m.build[i] = make(map[int64]float64, 32)
		}
		m.build[i][gcol] += v
	} else {
		m.remote = append(m.remote, triplet{grow, gcol, v})
	}
}

// Assemble routes off-rank contributions, freezes the sparsity pattern,
// and builds the ghost-exchange plan for Apply (collective).
func (m *Mat) Assemble() {
	r := m.Layout.rank
	p := r.Size()

	// Route buffered remote triplets to their owners (sparse: only ranks
	// this rank actually contributed to receive a message).
	byRank := make([][]triplet, p)
	for _, t := range m.remote {
		byRank[m.Layout.OwnerOf(t.Row)] = append(byRank[m.Layout.OwnerOf(t.Row)], t)
	}
	var dests []int
	var out []any
	var nb []int
	for j := range byRank {
		if len(byRank[j]) == 0 || j == r.ID() {
			continue
		}
		dests = append(dests, j)
		out = append(out, byRank[j])
		nb = append(nb, 24*len(byRank[j]))
	}
	_, datas := r.AlltoallvSparse(dests, out, nb)
	for _, d := range datas {
		for _, t := range d.([]triplet) {
			i := int(t.Row - m.Layout.Start())
			if m.build[i] == nil {
				m.build[i] = make(map[int64]float64, 32)
			}
			m.build[i][t.Col] += t.Val
		}
	}
	m.remote = nil

	// Column slots (collective: the plan over the off-rank columns).
	nLoc := m.Layout.Local()
	var ghostCols []int64
	for _, row := range m.build {
		for c := range row {
			if !m.Layout.Owns(c) {
				ghostCols = append(ghostCols, c)
			}
		}
	}
	m.gx = NewGhostExchange(m.Layout, ghostCols, 1)

	// CSR.
	n := len(m.build)
	m.rowPtr = make([]int32, n+1)
	nnz := 0
	for i, row := range m.build {
		nnz += len(row)
		m.rowPtr[i+1] = int32(nnz)
	}
	m.colIdx = make([]int32, nnz)
	m.vals = make([]float64, nnz)
	for i, row := range m.build {
		base := m.rowPtr[i]
		// Deterministic order within the row.
		keys := make([]int64, 0, len(row))
		for c := range row {
			keys = append(keys, c)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for k, c := range keys {
			if m.Layout.Owns(c) {
				m.colIdx[base+int32(k)] = int32(c - m.Layout.Start())
			} else {
				g, _ := slices.BinarySearch(m.gx.Ghosts(), c)
				m.colIdx[base+int32(k)] = int32(nLoc + g)
			}
			m.vals[base+int32(k)] = row[c]
		}
	}
	m.build = nil

	m.xbuf = make([]float64, nLoc+m.gx.NumGhosts())
	m.assembled = true
}

// Apply computes y = A x (collective).
func (m *Mat) Apply(x, y *Vec) {
	if !m.assembled {
		panic("la: Apply before Assemble")
	}
	n := len(x.Data)
	copy(m.xbuf[:n], x.Data)
	m.gx.Gather(x.Data, m.xbuf[n:])
	for i := 0; i < len(y.Data); i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * m.xbuf[m.colIdx[k]]
		}
		y.Data[i] = s
	}
}

// Diag extracts the global diagonal into a vector.
func (m *Mat) Diag() *Vec {
	d := NewVec(m.Layout)
	for i := range d.Data {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if int(m.colIdx[k]) == i {
				d.Data[i] = m.vals[k]
			}
		}
	}
	return d
}

// LocalCSR exposes this rank's diagonal block as a serial CSR matrix
// (rows and columns both restricted to owned indices). Off-block entries
// are dropped.
func (m *Mat) LocalCSR() *CSR {
	n := m.Layout.Local()
	c := &CSR{N: n}
	c.RowPtr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if int(m.colIdx[k]) < n {
				c.RowPtr[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	c.ColIdx = make([]int32, c.RowPtr[n])
	c.Vals = make([]float64, c.RowPtr[n])
	pos := make([]int32, n)
	copy(pos, c.RowPtr[:n])
	for i := 0; i < n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if li := m.colIdx[k]; int(li) < n {
				c.ColIdx[pos[i]] = li
				c.Vals[pos[i]] = m.vals[k]
				pos[i]++
			}
		}
	}
	return c
}

// CSR is a serial compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int32
	ColIdx []int32
	Vals   []float64
}

// Apply computes y = A x for the serial matrix.
func (c *CSR) Apply(x, y []float64) {
	for i := 0; i < c.N; i++ {
		var s float64
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Vals[k] * x[c.ColIdx[k]]
		}
		y[i] = s
	}
}

// Diag returns the diagonal entries.
func (c *CSR) Diag() []float64 {
	d := make([]float64, c.N)
	for i := 0; i < c.N; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			if int(c.ColIdx[k]) == i {
				d[i] = c.Vals[k]
			}
		}
	}
	return d
}
