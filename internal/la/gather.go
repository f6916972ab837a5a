package la

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
