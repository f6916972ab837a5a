package rhea

import (
	"time"

	"rhea/internal/errind"
	"rhea/internal/field"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
)

// AdaptStats describes one mesh adaptation step (paper Fig 5).
type AdaptStats struct {
	Refined      int64 // elements replaced by children
	Coarsened    int64 // elements removed by family merging (8 per family)
	BalanceAdded int64 // elements created by 2:1 balance
	Unchanged    int64
	Moved        int64 // elements that changed rank in PartitionTree
	ElementsPrev int64
	ElementsNow  int64
	LevelCounts  []int64
}

// AdaptFields runs the paper's adaptation stage sequence on the forest f
// behind mesh m (collective) and carries the nodal fields across it: the
// fields are snapshotted as element-corner data, then CoarsenTree,
// RefineTree, BalanceTree, projection onto the adapted leaves,
// PartitionTree, TransferFields, ExtractMesh (with m's geometry), and
// conversion back to nodal vectors on the new mesh. marks are
// errind.MarkElements' decisions for f's current leaves. f is adapted in
// place; the new mesh and the fields on it, in the order given, are
// returned. Each stage's wall-clock is added to its bucket of tm.
func AdaptFields(f *forest.Forest, m *mesh.Mesh, fields []*la.Vec, marks errind.Marks, tm *Timings) (*mesh.Mesh, []*la.Vec, AdaptStats) {
	r := f.Rank()
	st := AdaptStats{ElementsPrev: f.NumGlobal()}

	// Snapshot fields as element data on the old mesh.
	t0 := time.Now()
	data := field.FromNodal(m, fields)
	oldLeaves := append([]forest.Octant(nil), f.Leaves()...)
	tm.InterpolateFld += time.Since(t0).Seconds()

	// Coarsen + refine; the mark sets are disjoint, so coarsened regions
	// are never refine-marked.
	t0 = time.Now()
	nCoarse, nRef := f.AdaptMarked(marks.Coarsen, marks.Refine)
	tm.CoarsenRefine += time.Since(t0).Seconds()

	t0 = time.Now()
	added := f.Balance()
	tm.BalanceTree += time.Since(t0).Seconds()

	// Project fields onto the adapted (still old-partition) leaves.
	t0 = time.Now()
	data = field.ProjectData(oldLeaves, f.Leaves(), data)
	tm.InterpolateFld += time.Since(t0).Seconds()

	t0 = time.Now()
	dests := f.Partition()
	tm.PartitionTree += time.Since(t0).Seconds()

	t0 = time.Now()
	data = field.Transfer(r, dests, data)
	tm.TransferFld += time.Since(t0).Seconds()

	t0 = time.Now()
	nm := mesh.Extract(f, m.Geom)
	tm.ExtractMesh += time.Since(t0).Seconds()

	t0 = time.Now()
	out := field.ToNodal(nm, data)
	tm.InterpolateFld += time.Since(t0).Seconds()

	var moved int64
	for _, d := range dests {
		if d != r.ID() {
			moved++
		}
	}
	st.Refined = r.AllreduceInt64(int64(nRef))
	st.Coarsened = r.AllreduceInt64(int64(8 * nCoarse))
	st.BalanceAdded = r.AllreduceInt64(int64(added))
	st.Moved = r.AllreduceInt64(moved)
	// No reduction needed for the new total: a refinement adds 7 leaves,
	// a merged family of 8 removes 7.
	st.ElementsNow = st.ElementsPrev + 7*st.Refined - 7*st.Coarsened/8 + st.BalanceAdded
	st.Unchanged = st.ElementsPrev - st.Refined - st.Coarsened
	st.LevelCounts = f.LevelCounts()
	return nm, out, st
}
