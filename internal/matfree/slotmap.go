package matfree

import (
	"slices"

	"rhea/internal/la"
	"rhea/internal/mesh"
)

// CornerRef is one element corner resolved to compact node slots: the
// constrained-corner interpolation of mesh.Corner with global ids
// replaced by local slot indices (owned nodes first, then ghosts).
type CornerRef struct {
	N    int8
	Slot [4]int32
	W    [4]float64
}

// Value evaluates the corner from a slot-space buffer of nodal values,
// resolving the hanging-node interpolation.
func (cr *CornerRef) Value(buf []float64) float64 {
	var s float64
	for k := 0; k < int(cr.N); k++ {
		s += cr.W[k] * buf[cr.Slot[k]]
	}
	return s
}

// SlotMap is the compact per-rank node numbering matrix-free element
// loops run over: the rank's owned independent nodes first (slot =
// gid-Offset), then the distinct off-rank master nodes its elements
// reference, with one la.GhostExchange plan covering the ghost tail in
// both directions. The coupled Stokes operator (block=4) and the scalar
// multigrid level operators (block=1) share this structure.
type SlotMap struct {
	NOwned  int
	Corners [][8]CornerRef // aligned with mesh.Leaves
	GX      *la.GhostExchange

	offset int64
}

// NewSlotMap builds the slot numbering and ghost-exchange plan for the
// extracted mesh (collective). block is the number of float64 components
// carried per node.
func NewSlotMap(m *mesh.Mesh, block int) *SlotMap {
	sm := &SlotMap{NOwned: m.NumOwned, offset: m.Offset}

	// An owned master's slot is its gid minus the offset; a ghost's is its
	// rank in the sorted, de-duplicated list the exchange plan keeps.
	lo, hi := m.Offset, m.Offset+int64(m.NumOwned)
	var ghosts []int64
	for ei := range m.Corners {
		for c := 0; c < 8; c++ {
			co := &m.Corners[ei][c]
			for k := 0; k < int(co.N); k++ {
				if g := co.GID[k]; g < lo || g >= hi {
					ghosts = append(ghosts, g)
				}
			}
		}
	}
	sm.GX = la.NewGhostExchange(m.Layout(), ghosts, block)
	ghosts = sm.GX.Ghosts()
	slotOf := func(g int64) int32 {
		if lo <= g && g < hi {
			return int32(g - lo)
		}
		i, _ := slices.BinarySearch(ghosts, g)
		return int32(m.NumOwned + i)
	}

	sm.Corners = make([][8]CornerRef, len(m.Leaves))
	for ei := range m.Corners {
		for c := 0; c < 8; c++ {
			co := &m.Corners[ei][c]
			cr := CornerRef{N: co.N}
			for k := 0; k < int(co.N); k++ {
				cr.Slot[k] = slotOf(co.GID[k])
				cr.W[k] = co.W[k]
			}
			sm.Corners[ei][c] = cr
		}
	}
	return sm
}

// NodeSlots returns the block-1 node slot map of the mesh, building it on
// first use and caching it on the mesh (collective on first use: every
// rank of the mesh's communicator misses together). Everything that
// samples nodal fields at element corners or scatters element
// contributions back — multigrid levels, the Schur plan, transport,
// field transfer, error indication, diagnostics — shares this one
// numbering and ghost plan.
func NodeSlots(m *mesh.Mesh) *SlotMap {
	if sm, ok := m.SlotCache.(*SlotMap); ok {
		return sm
	}
	sm := NewSlotMap(m, 1)
	m.SlotCache = sm
	return sm
}

// GatherSlots fills buf (NSlots blocks) with the slot-space copy of a
// nodal field: the owned blocks followed by the gathered ghost blocks
// (collective).
func (sm *SlotMap) GatherSlots(owned, buf []float64) {
	copy(buf[:len(owned)], owned)
	sm.GX.Gather(owned, buf[len(owned):])
}

// NSlots returns the total slot count (owned + ghosts).
func (sm *SlotMap) NSlots() int { return sm.NOwned + sm.GX.NumGhosts() }

// GIDAt returns the global node id occupying a slot.
func (sm *SlotMap) GIDAt(s int) int64 {
	if s < sm.NOwned {
		return sm.offset + int64(s)
	}
	return sm.GX.Ghosts()[s-sm.NOwned]
}
