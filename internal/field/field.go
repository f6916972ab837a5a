// Package field implements INTERPOLATEFIELDS and TRANSFERFIELDS (paper
// §IV.B): carrying finite-element data fields across mesh adaptation
// (coarsening, refinement, 2:1 balance) and across repartitioning.
//
// During adaptation a field is represented as element-corner data (eight
// values per leaf). ProjectData maps such data from an old leaf set to a
// new one produced by any combination of local coarsening and refinement:
// refined leaves receive trilinearly interpolated values, coarsened
// leaves receive injected corner values. Transfer ships the per-element
// data to the new owners after PartitionTree, over the route Partition
// returned. FromNodal samples nodal vectors at element corners (one ghost
// exchange); ToNodal turns corner data back into nodal vectors locally,
// each owned node reading its corner in the element that holds its
// canonical cell, so no value is routed by global id.
//
// Every function takes all the fields that cross the adaptation at once:
// the old/new leaf correspondence is walked once and each destination
// rank gets one message. Each field sees the same operations in the same
// order as it would alone, so the results do not depend on which fields
// travel together.
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
			for c, s := range m.Rows[ei] {
				if s >= 0 {
					out[f][ei][c] = vals[f][s]
				} else {
					out[f][ei][c] = m.Hang[^s].Value(vals[f])
				}
			}
		}
	}
	return out
}

// ToNodal builds nodal vectors on the (new) mesh from element-corner data
// (local: no message, no collective). Each owned node takes its value
// from one corner: that of the first element in curve order having the
// node as an independent corner, which is the element holding the
// node's canonical cell (Mesh.OwnedCell), the cell that decides its
// ownership. The forest alone fixes that element, so a node's value does
// not depend on which ranks share the node. The corners of a continuous
// field agree at a node to rounding, so reading one loses nothing that
// averaging them would keep, and ToNodal(FromNodal(v)) returns v bit for
// bit. Hanging corners carry no value of their own; their masters imply
// them.
func ToNodal(m *mesh.Mesh, data []ElemData) []*la.Vec {
	out := make([]*la.Vec, len(data))
	for f := range out {
		out[f] = la.NewVec(m.Layout())
	}
	taken := make([]bool, m.NumOwned)
	for ei, row := range m.Rows {
		for c, s := range row {
			if s < 0 || int(s) >= m.NumOwned || taken[s] {
				continue // hanging, ghost or already taken
			}
			taken[s] = true
			for f := range out {
				out[f].Data[s] = data[f][ei][c]
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

// Transfer ships per-element data along the Route that PartitionTree
// returned for the same leaves, preserving curve order (collective). Both
// sides of the exchange are in the route, so no handshake is spent. Each
// destination receives one message carrying its elements of every field:
// ranges of data itself, which the caller must not modify afterwards.
func Transfer(r *sim.Rank, rt forest.Route, data []ElemData) []ElemData {
	out := make([]sim.Payload, len(rt.SendTo))
	lo := 0
	for k, n := range rt.SendCnt {
		part := make([]ElemData, len(data))
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
	merged := make([]ElemData, len(data))
	for f := range merged {
		merged[f] = make(ElemData, 0, rt.Received())
		for _, d := range in {
			merged[f] = append(merged[f], d.Data.([]ElemData)[f]...)
		}
	}
	return merged
}
