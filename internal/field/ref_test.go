package field

// The field pass as it ran before Project: FromNodal copied every field
// into element data on the old leaves, ProjectData copied it onto the
// adapted leaves, and Transfer concatenated a third copy on the new
// owners, the range a rank keeps included; ToNodal read the nodal
// vectors back from the whole arrays. Kept as the test oracle: Project
// followed by Transfer and Routed.ToNodal must return the same bits.

import (
	"fmt"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// FromNodal samples nodal fields at every element corner, resolving
// hanging-node interpolation (collective: one ghost exchange for all
// fields). Project reads the same corner values without storing them.
func FromNodal(m *mesh.Mesh, fields []*la.Vec) []elemData {
	vals := gather(m, fields)
	out := make([]elemData, len(fields))
	for f := range out {
		out[f] = make(elemData, len(m.Leaves))
		for ei := range out[f] {
			for c := range out[f][ei] {
				out[f][ei][c] = cornerValue(m, vals[f], ei, c)
			}
		}
	}
	return out
}

// ToNodal is Routed.ToNodal on whole element-data arrays, as if every
// element had arrived: ToNodal(FromNodal(v)) returns v bit for bit.
func ToNodal(m *mesh.Mesh, data []elemData) []*la.Vec {
	return (&Routed{nf: len(data), parts: []part{{data: data}}}).ToNodal(m)
}

// projectDataRef maps element-corner data from oldLeaves to newLeaves, two
// leaf sets in forest-curve order covering the same region of the domain
// on this rank. Each new leaf must be equal to, a descendant of, or an
// ancestor of old leaves of its tree (any number of refinement levels;
// families never span trees). Purely local; the correspondence is walked
// once for all fields.
func projectDataRef(oldLeaves, newLeaves []forest.Octant, data []elemData) []elemData {
	out := make([]elemData, len(data))
	for f := range out {
		out[f] = make(elemData, len(newLeaves))
	}
	oi := 0
	for ni, nf := range newLeaves {
		// Advance past old leaves strictly before nf that cannot contain it.
		for oi < len(oldLeaves) && !overlaps(oldLeaves[oi].Tree, oldLeaves[oi].O, nf) {
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

// transferRef ships per-element data along the Route that PartitionTree
// returned for the same leaves, preserving curve order (collective). Both
// sides of the exchange are in the route, so no handshake is spent. Each
// destination receives one message carrying its elements of every field:
// ranges of data itself, which the caller must not modify afterwards.
func transferRef(r *sim.Rank, rt forest.Route, data []elemData) []elemData {
	out := make([]sim.Payload, len(rt.SendTo))
	lo := 0
	for k, n := range rt.SendCnt {
		part := make([]elemData, len(data))
		for f := range data {
			part[f] = data[f][lo : lo+n]
		}
		out[k] = sim.Payload{Data: part, NBytes: 64 * len(data) * n}
		lo += n
	}
	in := make([]sim.Payload, len(rt.RecvFrom))
	r.NeighborExchange(rt.SendTo, out, rt.RecvFrom, in)
	// Sources arrive in ascending rank order, so the concatenation is in
	// curve order.
	merged := make([]elemData, len(data))
	for f := range merged {
		merged[f] = make(elemData, 0, rt.Received())
		for _, d := range in {
			merged[f] = append(merged[f], d.Data.([]elemData)[f]...)
		}
	}
	return merged
}
