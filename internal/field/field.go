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
//
// Every function takes all the fields that cross the adaptation at once:
// the old/new leaf correspondence is walked once, each destination rank
// gets one message, and the per-node contribution count is built once per
// mesh. Each field sees the same operations in the same order as it would
// alone, so the results do not depend on which fields travel together.
package field

import (
	"fmt"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// ElemData holds one scalar value per corner of each local element.
type ElemData [][8]float64

// FromNodal samples nodal fields at every element corner, resolving
// hanging-node interpolation (collective: one ghost exchange for all
// fields).
func FromNodal(m *mesh.Mesh, fields []*la.Vec) []ElemData {
	owned := make([][]float64, len(fields))
	for f, v := range fields {
		owned[f] = v.Data
	}
	vals := m.GatherSlots(owned...)
	out := make([]ElemData, len(fields))
	for f := range out {
		out[f] = make(ElemData, len(m.Leaves))
		for ei := range out[f] {
			for c := 0; c < 8; c++ {
				out[f][ei][c] = m.Corners[ei][c].Value(vals[f])
			}
		}
	}
	return out
}

// nodalShare is one rank's contributions to nodes another rank owns:
// for each contributing element corner, in element order, the node's
// global id and the corner value of every field (field-minor).
type nodalShare struct {
	gids []int64
	vals []float64
}

// ToNodal builds nodal vectors on the (new) mesh from element-corner data
// by weight-averaging the contributions of all elements sharing each
// independent node (collective). Hanging corners do not contribute; their
// values are implied by their masters. Contributions to nodes of another
// rank travel in one message per owner for all fields, and the
// contribution count, the same for every field, is accumulated once. Each
// node adds its local contributions in element order, then the remote
// ones in rank order.
func ToNodal(m *mesh.Mesh, data []ElemData) []*la.Vec {
	l := m.Layout()
	r := l.Rank()
	out := make([]*la.Vec, len(data))
	for f := range out {
		out[f] = la.NewVec(l)
	}
	cnt := make([]float64, l.Local())
	shares := make([]nodalShare, r.Size())
	for ei := range m.Leaves {
		for c := 0; c < 8; c++ {
			co := &m.Corners[ei][c]
			if co.Hanging() {
				continue
			}
			if i := int(co.Slot[0]); i < m.NumOwned {
				for f := range out {
					out[f].Data[i] += data[f][ei][c]
				}
				cnt[i]++
				continue
			}
			g := m.GID(co.Slot[0])
			sh := &shares[l.OwnerOf(g)]
			sh.gids = append(sh.gids, g)
			for f := range data {
				sh.vals = append(sh.vals, data[f][ei][c])
			}
		}
	}
	var dests []int
	var payloads []any
	var nb []int
	for j, sh := range shares {
		if len(sh.gids) == 0 {
			continue
		}
		dests = append(dests, j)
		payloads = append(payloads, sh)
		nb = append(nb, 8*(len(sh.gids)+len(sh.vals)))
	}
	_, in := r.AlltoallvSparse(dests, payloads, nb)
	for _, d := range in {
		sh := d.(nodalShare)
		for k, g := range sh.gids {
			i := g - l.Start()
			for f := range out {
				out[f].Data[i] += sh.vals[k*len(out)+f]
			}
			cnt[i]++
		}
	}
	for f := range out {
		for i, n := range cnt {
			if n > 0 {
				out[f].Data[i] /= n
			}
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
// families never span trees). Purely local; the correspondence is walked
// once for all fields.
func ProjectData(oldLeaves, newLeaves []forest.Octant, data []ElemData) []ElemData {
	out := make([]ElemData, len(data))
	for f := range out {
		out[f] = make(ElemData, len(newLeaves))
	}
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
			for f := range out {
				out[f][ni] = data[f][oi]
			}
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
			for c := 0; c < 8; c++ {
				r := cornerRef(c)
				xi := [3]float64{off[0] + scale*r[0], off[1] + scale*r[1], off[2] + scale*r[2]}
				// fem.Interp for every field, its shape values computed once.
				var w [8]float64
				for k := range w {
					w[k] = fem.ShapeValue(k, xi)
				}
				for f := range out {
					var v float64
					for k, src := range data[f][oi] {
						v += src * w[k]
					}
					out[f][ni][c] = v
				}
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
						for f := range out {
							out[f][ni][c] = data[f][oi][c]
						}
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
// PartitionTree, preserving curve order (collective). Each destination
// receives one message carrying its elements of every field: ranges of
// data itself, which the caller must not modify afterwards.
func Transfer(r *sim.Rank, dests []int, data []ElemData) []ElemData {
	// PartitionTree's destinations are monotone along the curve, so each
	// destination's share is one contiguous range of every field.
	var sendTo []int
	var out []any
	var nb []int
	for lo := 0; lo < len(dests); {
		hi := lo
		for hi < len(dests) && dests[hi] == dests[lo] {
			hi++
		}
		part := make([]ElemData, len(data))
		for f := range data {
			part[f] = data[f][lo:hi]
		}
		sendTo = append(sendTo, dests[lo])
		out = append(out, part)
		nb = append(nb, 64*len(data)*(hi-lo))
		lo = hi
	}
	// Sources arrive sorted by rank, so the concatenation preserves
	// curve order exactly as the dense exchange did.
	_, in := r.AlltoallvSparse(sendTo, out, nb)
	merged := make([]ElemData, len(data))
	for _, d := range in {
		for f, part := range d.([]ElemData) {
			merged[f] = append(merged[f], part...)
		}
	}
	return merged
}
