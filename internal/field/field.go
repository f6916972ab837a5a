// Package field implements INTERPOLATEFIELDS and TRANSFERFIELDS (paper
// §IV.B): carrying finite-element data fields across mesh adaptation
// (coarsening, refinement, 2:1 balance) and across repartitioning.
//
// Project maps nodal fields on the old mesh onto a new leaf set produced
// by any combination of local coarsening and refinement, reading each old
// element's corners straight from the gathered slot values: refined
// leaves receive trilinearly interpolated values, coarsened leaves
// receive injected corner values. A field is held as element-corner data
// (eight values per leaf) only where it travels: the leaves the partition
// moves are projected into their messages, which Transfer ships, and the
// leaves a rank keeps are projected by ToNodal at the one corner each
// owned node reads. ToNodal turns corner data back into nodal vectors
// locally, each owned node reading its corner in the element that holds
// its canonical cell, so no value is routed by global id.
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

// elemData holds one scalar value per corner of each local element.
type elemData [][8]float64

// gather returns the fields in slot space on m: owned values, then the
// ghosts (collective: one ghost exchange for all fields).
func gather(m *mesh.Mesh, fields []*la.Vec) [][]float64 {
	owned := make([][]float64, len(fields))
	for f, v := range fields {
		owned[f] = v.Data
	}
	return m.GatherSlots(owned...)
}

// cornerValue returns the slot-space field v at corner c of element ei,
// resolving a hanging corner from its masters.
func cornerValue(m *mesh.Mesh, v []float64, ei, c int) float64 {
	s := m.Rows[ei][c]
	if s >= 0 {
		return v[s]
	}
	return m.Hang[^s].Value(v)
}

// cornerRef returns the reference coordinates of corner c.
func cornerRef(c int) [3]float64 {
	return [3]float64{float64(c & 1), float64(c >> 1 & 1), float64(c >> 2 & 1)}
}

// newElemData returns nf element-data arrays of n elements each, carved
// from one allocation.
func newElemData(nf, n int) []elemData {
	buf := make(elemData, nf*n)
	out := make([]elemData, nf)
	for f := range out {
		out[f] = buf[f*n : (f+1)*n : (f+1)*n]
	}
	return out
}

// Routed is the field pass of one adaptation, laid out along the
// partition route: each range of adapted leaves that changes rank is
// projected into its message, the range this rank keeps stays with the
// projector until ToNodal reads the corners the new mesh needs. Project
// starts it, Transfer delivers the moved ranges, and ToNodal, once, on
// the mesh extracted from the partitioned forest, finishes it.
type Routed struct {
	nf     int
	rt     forest.Route
	out    []sim.Payload   // per rt.SendTo entry; empty for this rank itself
	own    []forest.Octant // the adapted leaves this rank keeps
	self   int             // own[0]'s index among this rank's new leaves
	pr     projector       // stands before own[0] until ToNodal
	parts  []part          // the ranges that arrived, in curve order
	resume int             // the projector's old-leaf cursor at own[0]
}

// part is element data of the new leaves from index at on.
type part struct {
	at   int
	data []elemData
}

// Project starts carrying nodal fields on the old mesh m onto adapted,
// this rank's leaves after local coarsening, refinement and balance, in
// forest-curve order, before the partition rt (the Route Partition
// returned for them) moved them (collective: one ghost exchange for all
// fields). Each new leaf must be equal to, a descendant of, or an
// ancestor of old leaves of its tree (any number of refinement levels;
// families never span trees). Old and new leaves are walked in one pass
// for all fields, and each old corner is read from the gathered slot
// values, a hanging one through its masters. Each moved range is projected
// straight into its message; the range this rank keeps is projected by
// ToNodal, at the corners the new mesh reads.
func Project(m *mesh.Mesh, fields []*la.Vec, adapted []forest.Octant, rt forest.Route) *Routed {
	me, nf := m.Rank.ID(), len(fields)
	p := &Routed{nf: nf, rt: rt, out: make([]sim.Payload, len(rt.SendTo)),
		pr: projector{m: m, vals: gather(m, fields), src: make([][8]float64, nf), cur: -1}}
	for k, from := range rt.RecvFrom {
		if from >= me {
			break
		}
		p.self += rt.RecvCnt[k]
	}
	vals := make([]float64, nf)
	lo := 0
	for k, n := range rt.SendCnt {
		if rt.SendTo[k] == me {
			p.own, p.resume = adapted[lo:lo+n], p.pr.oi
		} else {
			dst := newElemData(nf, n)
			for i, o := range adapted[lo : lo+n] {
				p.pr.at(o)
				for c := 0; c < 8; c++ {
					p.pr.corner(c, vals)
					for f, v := range vals {
						dst[f][i][c] = v
					}
				}
			}
			p.out[k] = sim.Payload{Data: dst, NBytes: 64 * nf * n}
		}
		lo += n
	}
	return p
}

// Transfer ships the moved ranges along the route (collective). Both
// sides of the exchange are in the route, so no handshake is spent. Each
// destination receives one message carrying its elements of every field,
// which ToNodal reads where it arrived: nothing is copied.
func (p *Routed) Transfer(r *sim.Rank) {
	in := make([]sim.Payload, len(p.rt.RecvFrom))
	r.NeighborExchange(p.rt.SendTo, p.out, p.rt.RecvFrom, in)
	// Sources arrive in ascending rank order, so each range starts at the
	// running offset in curve order.
	at := 0
	for k, from := range p.rt.RecvFrom {
		if from != r.ID() {
			p.parts = append(p.parts, part{at: at, data: in[k].Data.([]elemData)})
		}
		at += p.rt.RecvCnt[k]
	}
}

// ToNodal builds the nodal vectors on the new mesh nm, extracted from the
// partitioned forest (local: no message, no collective). Each owned node
// takes its value from one corner: that of the first element in curve
// order having the node as an independent corner, which is the element
// holding the node's canonical cell (Mesh.OwnedCell), the cell that
// decides its ownership. The forest alone fixes that element, so a node's
// value does not depend on which ranks share the node. The corners of a
// continuous field agree at a node to rounding, so reading one loses
// nothing that averaging them would keep. Hanging corners carry no value
// of their own; their masters imply them. The corner is read from the
// arrived data, or projected on the spot for a leaf this rank kept.
func (p *Routed) ToNodal(nm *mesh.Mesh) []*la.Vec {
	out := make([]*la.Vec, p.nf)
	for f := range out {
		out[f] = la.NewVec(nm.Layout())
	}
	vals := make([]float64, p.nf)
	taken := make([]bool, nm.NumOwned)
	p.pr.oi, p.pr.cur = p.resume, -1
	at, k := -1, 0 // the kept leaf the projector stands on; the arrived range
	for ei, row := range nm.Rows {
		for c, s := range row {
			if s < 0 || int(s) >= nm.NumOwned || taken[s] {
				continue // hanging, ghost or already taken
			}
			taken[s] = true
			if i := ei - p.self; 0 <= i && i < len(p.own) {
				if i != at {
					p.pr.at(p.own[i])
					at = i
				}
				p.pr.corner(c, vals)
				for f, v := range vals {
					out[f].Data[s] = v
				}
				continue
			}
			for k+1 < len(p.parts) && p.parts[k+1].at <= ei {
				k++
			}
			d := p.parts[k]
			for f := range out {
				out[f].Data[s] = d.data[f][ei-d.at][c]
			}
		}
	}
	return out
}

// projector walks the old mesh's leaves along the new ones.
type projector struct {
	m    *mesh.Mesh
	vals [][]float64  // the fields in slot space on m
	oi   int          // the first old leaf not yet passed
	cur  int          // the old leaf whose corners src holds, or -1
	src  [][8]float64 // per field, the corner values of old leaf cur

	// The new leaf at stands on, nl, how it came from the old leaves, and
	// those it reads: lo up to hi.
	nl     morton.Octant
	how    int // kept, refined or coarsened
	lo, hi int
}

const (
	kept      = iota // nl is old leaf lo
	refined          // nl lies in old leaf lo
	coarsened        // nl is the union of old leaves lo up to hi
)

// at stands the walk on the new leaf nf, the next one in curve order
// whose corners are wanted.
func (p *projector) at(nf forest.Octant) {
	m := p.m
	// Advance past old leaves strictly before nf that cannot contain it.
	for p.oi < len(m.Leaves) && !overlaps(m.Trees[p.oi], m.Leaves[p.oi], nf) {
		p.oi++
	}
	if p.oi >= len(m.Leaves) {
		panic(fmt.Sprintf("field: new leaf %v has no overlapping old leaf", nf))
	}
	ol, nl := m.Leaves[p.oi], nf.O
	p.nl, p.lo = nl, p.oi
	switch {
	case ol == nl:
		p.how = kept
		p.oi++
	case ol.IsAncestorOf(nl):
		// Refinement: interpolate within the old leaf. Do not advance oi
		// unless nl is the last descendant touching ol's end; more may
		// follow.
		p.how = refined
		if p.cur != p.oi {
			for f, v := range p.vals {
				for k := range p.src[f] {
					p.src[f][k] = cornerValue(m, v, p.oi, k)
				}
			}
			p.cur = p.oi
		}
		if lastCovered(ol, nl) {
			p.oi++
		}
	default:
		// Coarsening: the descendants of nl.
		p.how = coarsened
		for p.oi < len(m.Leaves) && m.Trees[p.oi] == nf.Tree && nl.ContainsOrEqual(m.Leaves[p.oi]) {
			p.oi++
		}
	}
	p.hi = p.oi
}

// corner writes into vals every field's value at corner c of the new
// leaf the walk stands on.
func (p *projector) corner(c int, vals []float64) {
	m, nl := p.m, p.nl
	switch p.how {
	case kept:
		for f, v := range p.vals {
			vals[f] = cornerValue(m, v, p.lo, c)
		}
	case refined:
		ol := m.Leaves[p.lo]
		scale := float64(nl.Len()) / float64(ol.Len())
		off := [3]float64{
			float64(nl.X-ol.X) / float64(ol.Len()),
			float64(nl.Y-ol.Y) / float64(ol.Len()),
			float64(nl.Z-ol.Z) / float64(ol.Len()),
		}
		r := cornerRef(c)
		xi := [3]float64{off[0] + scale*r[0], off[1] + scale*r[1], off[2] + scale*r[2]}
		// fem.Interp for every field, its shape values computed once.
		var w [8]float64
		for k := range w {
			w[k] = fem.ShapeValue(k, xi)
		}
		for f, src := range p.src {
			var v float64
			for k, s := range src {
				v += s * w[k]
			}
			vals[f] = v
		}
	case coarsened:
		// Inject the value of the descendant whose corner c coincides
		// with nl's.
		clear(vals)
		for d := p.lo; d < p.hi; d++ {
			if cornerMatches(m.Leaves[d], c, nl) {
				for f, v := range p.vals {
					vals[f] = cornerValue(m, v, d, c)
				}
				return
			}
		}
	}
}

// overlaps reports whether the leaf a of tree and b overlap (one contains
// the other).
func overlaps(tree int32, a morton.Octant, b forest.Octant) bool {
	return tree == b.Tree && (a.ContainsOrEqual(b.O) || b.O.ContainsOrEqual(a))
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
