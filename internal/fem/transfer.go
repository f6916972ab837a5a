package fem

import (
	"fmt"
	"sort"

	"rhea/internal/la"
	"rhea/internal/mesh"
)

// Transfer is the grid-transfer pair between two extracted meshes of the
// same domain, the coarse one obtained by octree coarsening of the fine
// one (forest.CoarsenedCopy): prolongation evaluates the coarse finite-
// element field — hanging-node constraints included — at every fine
// independent node, and restriction is its exact transpose. Both are
// stored as one stencil table (per fine owned node: coarse master slots
// and trilinear weights), so applying either direction is a stencil
// sweep plus one ghost exchange on the coarse layout; no matrix is ever
// assembled. Coarse masters referenced across rank boundaries are
// handled by the same la.GhostExchange plan in both directions.
//
// Because the stencils interpolate the constrained trilinear space,
// prolongation reproduces globally linear functions exactly, including
// across hanging-node interfaces — the property that makes the pair
// usable inside geometric multigrid.
type Transfer struct {
	coarseL *la.Layout

	// Stencil of fine owned node i: entries [ptr[i], ptr[i+1]) of
	// (slot, w) in coarse slot space (owned coarse nodes first, ghosts
	// after, as in matfree's compact numbering).
	ptr  []int32
	slot []int32
	w    []float64

	gx      *la.GhostExchange
	nCoarse int       // coarse owned nodes
	buf     []float64 // coarse slot-space work buffer (see slotBuf)
}

// NewTransfer builds the transfer stencils from the coarse mesh to the
// fine mesh (collective). Both meshes must come from forests with
// identical per-rank curve coverage — true by construction for
// forest.CoarsenedCopy — so the coarse element containing a fine owned
// node is always local.
func NewTransfer(fine, coarse *mesh.Mesh) *Transfer {
	t := &Transfer{coarseL: coarse.Layout(), nCoarse: coarse.NumOwned}

	// Build the raw stencils over the coarse mesh's node slots.
	type entry struct {
		s int32
		w float64
	}
	stencils := make([][]entry, fine.NumOwned)
	used := make([]bool, coarse.NSlots()) // coarse slots some stencil reads
	for i, cell := range fine.OwnedCell {
		// The extraction recorded, per owned node, the incident finest
		// cell that determined ownership and the node's position in that
		// cell's tree frame; the coarse leaf containing that cell is local
		// (identical curve coverage).
		P := fine.OwnedCellPos[i]
		ci := coarse.FindLocalElement(cell.Tree, cell.O)
		if ci < 0 {
			panic(fmt.Sprintf("fem: fine node %v (tree %d) has no local coarse element (meshes not coverage-aligned?)", P, cell.Tree))
		}
		leaf := coarse.Leaves[ci]
		L := float64(leaf.Len())
		xi := [3]float64{
			(float64(P[0]) - float64(leaf.X)) / L,
			(float64(P[1]) - float64(leaf.Y)) / L,
			(float64(P[2]) - float64(leaf.Z)) / L,
		}
		// Combine the trilinear corner weights with the coarse corner
		// constraints: the stencil runs over independent coarse nodes.
		var acc []entry
		for c := 0; c < 8; c++ {
			wc := ShapeValue(c, xi)
			if wc == 0 {
				continue
			}
			co := coarse.Corner(ci, c)
		masters:
			for k := 0; k < int(co.N); k++ {
				for j := range acc {
					if acc[j].s == co.Slot[k] {
						acc[j].w += wc * co.W[k]
						continue masters
					}
				}
				acc = append(acc, entry{co.Slot[k], wc * co.W[k]})
			}
		}
		st := acc[:0]
		for _, e := range acc {
			if e.w != 0 {
				st = append(st, e)
				used[e.s] = true
			}
		}
		// Ascending global id: the order the sums have always run in.
		sort.Slice(st, func(a, b int) bool { return coarse.GID(st[a].s) < coarse.GID(st[b].s) })
		stencils[i] = st
	}

	// The transfer's own slot numbering: coarse owned nodes first, then
	// the ghosts its stencils read — a subset of the coarse mesh's, in the
	// same (ascending id) order, with a plan over just those.
	slotOf := make([]int32, len(used))
	var ghosts []int64
	for s := range used {
		switch {
		case s < t.nCoarse:
			slotOf[s] = int32(s)
		case used[s]:
			slotOf[s] = int32(t.nCoarse + len(ghosts))
			ghosts = append(ghosts, coarse.GID(int32(s)))
		}
	}
	t.gx = la.NewGhostExchange(t.coarseL, ghosts)

	t.ptr = make([]int32, fine.NumOwned+1)
	for i, st := range stencils {
		t.ptr[i+1] = t.ptr[i] + int32(len(st))
		for _, e := range st {
			t.slot = append(t.slot, slotOf[e.s])
			t.w = append(t.w, e.w)
		}
	}
	return t
}

// Prolong interpolates the coarse nodal field xc to the fine nodes,
// writing xf (collective: one coarse ghost gather). Both fields are
// node-major with w values per node (xc[w*i+c] is component c of coarse
// owned node i), so w same-mesh fields share one stencil sweep and one
// message per neighbor; each component is interpolated exactly as a
// lone scalar field would be. At w = 3 (the velocity block) each stencil
// entry is read once for all three fields, each still summed from zero
// in stencil order.
func (t *Transfer) Prolong(w int, xc, xf []float64) {
	buf := t.slotBuf(w)
	nc := w * t.nCoarse
	copy(buf[:nc], xc)
	t.gx.GatherBlock(w, xc, buf[nc:])
	for i, nf := 0, len(t.ptr)-1; i < nf; i++ {
		if w == 3 {
			var s0, s1, s2 float64
			for k := t.ptr[i]; k < t.ptr[i+1]; k++ {
				wk, p := t.w[k], buf[3*int(t.slot[k]):3*int(t.slot[k])+3]
				s0 += wk * p[0]
				s1 += wk * p[1]
				s2 += wk * p[2]
			}
			xf[3*i], xf[3*i+1], xf[3*i+2] = s0, s1, s2
			continue
		}
		for c := 0; c < w; c++ {
			var s float64
			for k := t.ptr[i]; k < t.ptr[i+1]; k++ {
				s += t.w[k] * buf[w*int(t.slot[k])+c]
			}
			xf[w*i+c] = s
		}
	}
}

// Restrict applies the exact transpose of Prolong: fine nodal values are
// scatter-added through the same stencils into the coarse nodes
// (collective: one coarse ghost scatter-add), w values per node as in
// Prolong. At w = 3 each stencil entry is read once for all three
// fields; a coarse value still receives its fine contributions in
// fine-node order, since the slots of one stencil are distinct.
func (t *Transfer) Restrict(w int, rf, rc []float64) {
	buf := t.slotBuf(w)
	for i := range buf {
		buf[i] = 0
	}
	for i, nf := 0, len(t.ptr)-1; i < nf; i++ {
		if w == 3 {
			v0, v1, v2 := rf[3*i], rf[3*i+1], rf[3*i+2]
			for k := t.ptr[i]; k < t.ptr[i+1]; k++ {
				wk, p := t.w[k], buf[3*int(t.slot[k]):3*int(t.slot[k])+3]
				p[0] += wk * v0
				p[1] += wk * v1
				p[2] += wk * v2
			}
			continue
		}
		for c := 0; c < w; c++ {
			v := rf[w*i+c]
			for k := t.ptr[i]; k < t.ptr[i+1]; k++ {
				buf[w*int(t.slot[k])+c] += t.w[k] * v
			}
		}
	}
	nc := w * t.nCoarse
	copy(rc, buf[:nc])
	t.gx.ScatterAddBlock(w, buf[nc:], rc)
}

// slotBuf returns the coarse slot-space work buffer for w values per
// node, grown on the first use of a wider field.
func (t *Transfer) slotBuf(w int) []float64 {
	n := w * (t.nCoarse + t.gx.NumGhosts())
	if cap(t.buf) < n {
		t.buf = make([]float64, n)
	}
	return t.buf[:n]
}
