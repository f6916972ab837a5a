package matfree

import (
	"rhea/internal/la"
	"rhea/internal/mesh"
)

// CornerRef is the mesh's slot-addressed element corner.
type CornerRef = mesh.Corner

// SlotMap is a view of the node numbering the mesh itself carries
// (mesh.Mesh.GX): the owned-node count, the element corners and the
// ghost-exchange plan under the names the benchmark harness compiles
// against. Nothing is negotiated; the program addresses nodes through the
// mesh's Rows and Hang directly, and only the harness asks for this
// expanded table.
type SlotMap struct {
	NOwned  int
	Corners [][8]CornerRef // Corners[ei][c] == m.Corner(ei, c)
	GX      *la.GhostExchange
}

// NewSlotMap returns the view of m's numbering (local: it expands the
// mesh's corner rows, communicating nothing). The block argument is
// ignored: the plan's index tables serve every width.
func NewSlotMap(m *mesh.Mesh, block int) *SlotMap {
	cs := make([][8]CornerRef, len(m.Rows))
	for ei := range cs {
		for c := range cs[ei] {
			cs[ei][c] = m.Corner(ei, c)
		}
	}
	return &SlotMap{NOwned: m.NumOwned, Corners: cs, GX: m.GX}
}

// NodeSlots returns the view of m's numbering (local).
func NodeSlots(m *mesh.Mesh) *SlotMap { return NewSlotMap(m, 1) }

// NSlots returns the total slot count (owned + ghosts).
func (sm *SlotMap) NSlots() int { return sm.NOwned + sm.GX.NumGhosts() }
