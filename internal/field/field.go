// Package field implements INTERPOLATEFIELDS and TRANSFERFIELDS (paper
// §IV.B): carrying finite-element data fields across mesh adaptation
// (coarsening, refinement, 2:1 balance) and across repartitioning.
//
// During adaptation a field is represented as element-corner data (eight
// values per leaf). ProjectData maps such data from an old leaf set to a
// new one produced by any combination of local coarsening and refinement:
// refined leaves receive trilinearly interpolated values, coarsened
// leaves receive injected corner values. Transfer ships the per-element
// data to the new owners after PartitionTree, following the same
// destination routing. ToNodal/FromNodal convert between element-corner
// data and global nodal vectors.
package field

import (
	"fmt"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/matfree"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// ElemData holds one scalar value per corner of each local element.
type ElemData [][8]float64

// FromNodal samples a nodal field at every element corner, resolving
// hanging-node interpolation (collective).
func FromNodal(m *mesh.Mesh, T *la.Vec) ElemData {
	sm := matfree.NodeSlots(m)
	vals := make([]float64, sm.NSlots())
	sm.GatherSlots(T.Data, vals)
	out := make(ElemData, len(m.Leaves))
	for ei := range out {
		for c := 0; c < 8; c++ {
			out[ei][c] = sm.Corners[ei][c].Value(vals)
		}
	}
	return out
}

// ToNodal builds a nodal vector on the (new) mesh from element-corner
// data by weight-averaging the contributions of all elements sharing each
// independent node (collective). Hanging corners do not contribute; their
// values are implied by their masters.
func ToNodal(m *mesh.Mesh, data ElemData) *la.Vec {
	l := m.Layout()
	sum := la.NewVecBuilder(l)
	cnt := la.NewVecBuilder(l)
	for ei := range m.Leaves {
		for c := 0; c < 8; c++ {
			co := &m.Corners[ei][c]
			if co.Hanging {
				continue
			}
			sum.Add(co.GID[0], data[ei][c])
			cnt.Add(co.GID[0], 1)
		}
	}
	s := sum.Finalize()
	n := cnt.Finalize()
	out := la.NewVec(l)
	for i := range out.Data {
		if n.Data[i] > 0 {
			out.Data[i] = s.Data[i] / n.Data[i]
		}
	}
	return out
}

// cornerRef returns the reference coordinates of corner c.
func cornerRef(c int) [3]float64 {
	return [3]float64{float64(c & 1), float64(c >> 1 & 1), float64(c >> 2 & 1)}
}

// ProjectData maps element-corner data from oldLeaves to newLeaves, two
// leaf sets in forest-curve order covering the same region of the domain
// on this rank. Each new leaf must be equal to, a descendant of, or an
// ancestor of old leaves of its tree (any number of refinement levels;
// families never span trees). Purely local.
func ProjectData(oldLeaves, newLeaves []forest.Octant, data ElemData) ElemData {
	out := make(ElemData, len(newLeaves))
	oi := 0
	for ni, nf := range newLeaves {
		// Advance past old leaves strictly before nf that cannot contain it.
		for oi < len(oldLeaves) && !overlaps(oldLeaves[oi], nf) {
			oi++
		}
		if oi >= len(oldLeaves) {
			panic(fmt.Sprintf("field: new leaf %v has no overlapping old leaf", nf))
		}
		ol, nl := oldLeaves[oi].O, nf.O
		switch {
		case ol == nl:
			out[ni] = data[oi]
			oi++
		case ol.IsAncestorOf(nl):
			// Refinement: interpolate within the old leaf. Do not advance
			// oi; more descendants may follow.
			scale := float64(nl.Len()) / float64(ol.Len())
			off := [3]float64{
				float64(nl.X-ol.X) / float64(ol.Len()),
				float64(nl.Y-ol.Y) / float64(ol.Len()),
				float64(nl.Z-ol.Z) / float64(ol.Len()),
			}
			src := data[oi]
			for c := 0; c < 8; c++ {
				r := cornerRef(c)
				xi := [3]float64{off[0] + scale*r[0], off[1] + scale*r[1], off[2] + scale*r[2]}
				out[ni][c] = fem.Interp(&src, xi)
			}
			// If nl is the last descendant touching ol's end, advance.
			if lastCovered(ol, nl) {
				oi++
			}
		default:
			// Coarsening: inject corner values from the descendants whose
			// corners coincide with nl's corners.
			for ; oi < len(oldLeaves) && oldLeaves[oi].Tree == nf.Tree && nl.ContainsOrEqual(oldLeaves[oi].O); oi++ {
				d := oldLeaves[oi].O
				for c := 0; c < 8; c++ {
					if cornerMatches(d, c, nl) {
						out[ni][c] = data[oi][c]
					}
				}
			}
		}
	}
	return out
}

// overlaps reports whether a and b overlap (one contains the other).
func overlaps(a, b forest.Octant) bool {
	return a.Tree == b.Tree && (a.O.ContainsOrEqual(b.O) || b.O.ContainsOrEqual(a.O))
}

// lastCovered reports whether descendant d reaches the far corner of a.
func lastCovered(a, d morton.Octant) bool {
	return d.X+d.Len() == a.X+a.Len() &&
		d.Y+d.Len() == a.Y+a.Len() &&
		d.Z+d.Len() == a.Z+a.Len()
}

// cornerMatches reports whether corner c of descendant d coincides with
// corner c of ancestor a (injection points).
func cornerMatches(d morton.Octant, c int, a morton.Octant) bool {
	dh, ah := d.Len(), a.Len()
	dp := [3]uint32{d.X, d.Y, d.Z}
	ap := [3]uint32{a.X, a.Y, a.Z}
	for axis := 0; axis < 3; axis++ {
		bit := uint32(c >> axis & 1)
		if dp[axis]+bit*dh != ap[axis]+bit*ah {
			return false
		}
	}
	return true
}

// Transfer ships per-element data to the destination ranks returned by
// PartitionTree, preserving curve order (collective).
func Transfer(r *sim.Rank, dests []int, data ElemData) ElemData {
	p := r.Size()
	byRank := make([]ElemData, p)
	for i, d := range dests {
		byRank[d] = append(byRank[d], data[i])
	}
	var sendTo []int
	var out []any
	var nb []int
	for j := range byRank {
		if len(byRank[j]) == 0 {
			continue
		}
		sendTo = append(sendTo, j)
		out = append(out, byRank[j])
		nb = append(nb, 64*len(byRank[j]))
	}
	// Sources arrive sorted by rank, so the concatenation preserves
	// curve order exactly as the dense exchange did.
	_, in := r.AlltoallvSparse(sendTo, out, nb)
	var merged ElemData
	for _, d := range in {
		merged = append(merged, d.(ElemData)...)
	}
	return merged
}
