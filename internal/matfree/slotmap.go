package matfree

import (
	"rhea/internal/la"
	"rhea/internal/mesh"
)

// CornerRef is the mesh's slot-addressed element corner.
type CornerRef = mesh.Corner

// SlotMap is a view of the node numbering the mesh itself carries
// (mesh.Mesh.GX): the owned-node count, the mesh's corner table and its
// ghost-exchange plan under the names the benchmark harness compiles
// against. Nothing is copied and nothing is negotiated; the program
// addresses nodes through the mesh directly.
type SlotMap struct {
	NOwned  int
	Corners [][8]CornerRef // m.Corners itself
	GX      *la.GhostExchange
}

// NewSlotMap returns the view of m's numbering (local, free). The block
// argument is ignored: the plan's index tables serve every width.
func NewSlotMap(m *mesh.Mesh, block int) *SlotMap {
	return &SlotMap{NOwned: m.NumOwned, Corners: m.Corners, GX: m.GX}
}

// NodeSlots returns the view of m's numbering (local, free).
func NodeSlots(m *mesh.Mesh) *SlotMap { return NewSlotMap(m, 1) }

// NSlots returns the total slot count (owned + ghosts).
func (sm *SlotMap) NSlots() int { return sm.NOwned + sm.GX.NumGhosts() }
