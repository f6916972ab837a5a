package rhea

import (
	"time"

	"rhea/internal/errind"
	"rhea/internal/field"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
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
// behind mesh m (collective) and carries the nodal fields across it:
// CoarsenTree, RefineTree, BalanceTree, PartitionTree, projection of the
// fields from m onto the adapted leaves, TransferFields, ExtractMesh (with
// m's geometry), and conversion back to nodal vectors on the new mesh.
// marks are errind.MarkElements' decisions for f's current leaves. f is
// adapted in place; the new mesh and the fields on it, in the order given,
// are returned. Each stage's wall-clock is added to its bucket of tm.
//
// The projection runs after the partition, on the adapted leaves as they
// were before it, so each projected value is written once, where it is
// read: the leaves that change rank into their messages, those a rank
// keeps straight into the nodal vectors, at the one corner each owned
// node reads (field.Routed).
//
// With no fields the three field stages (projection, transfer, nodal
// conversion) are skipped, their ghost gather and exchange included:
// every rank passes the same number of fields, so every rank skips the
// same collectives.
func AdaptFields(f *forest.Forest, m *mesh.Mesh, fields []*la.Vec, marks errind.Marks, tm *Timings) (*mesh.Mesh, []*la.Vec, AdaptStats) {
	r := f.Rank()
	nPrev := f.NumLocal()
	carry := len(fields) > 0

	// Coarsen + refine; the mark sets are disjoint, so coarsened regions
	// are never refine-marked.
	t0 := time.Now()
	nCoarse, nRef := f.AdaptMarked(marks.Coarsen, marks.Refine)
	tm.CoarsenRefine += time.Since(t0).Seconds()

	t0 = time.Now()
	added := f.Balance()
	tm.BalanceTree += time.Since(t0).Seconds()

	// Partition leaves the adapted leaf slice as it was.
	adapted := f.Leaves()
	t0 = time.Now()
	route := f.Partition()
	tm.PartitionTree += time.Since(t0).Seconds()

	var routed *field.Routed
	if carry {
		t0 = time.Now()
		routed = field.Project(m, fields, adapted, route)
		tm.InterpolateFld += time.Since(t0).Seconds()
		t0 = time.Now()
		routed.Transfer(r)
		tm.TransferFld += time.Since(t0).Seconds()
	}

	t0 = time.Now()
	nm := mesh.Extract(f, m.Geom)
	tm.ExtractMesh += time.Since(t0).Seconds()

	var out []*la.Vec
	if carry {
		t0 = time.Now()
		out = routed.ToNodal(nm)
		tm.InterpolateFld += time.Since(t0).Seconds()
	}

	// Every tally in one reduction: the previous count, the three
	// adaptation counts, the leaves that changed rank and the new leaves
	// per level.
	tally := make([]float64, 5+morton.MaxLevel+1)
	tally[0], tally[1], tally[2], tally[3] = float64(nPrev), float64(nRef), float64(8*nCoarse), float64(added)
	for k, d := range route.SendTo {
		if d != r.ID() {
			tally[4] += float64(route.SendCnt[k])
		}
	}
	for _, o := range f.Leaves() {
		tally[5+o.O.Level]++
	}
	tally = r.AllreduceVec(tally)
	st := AdaptStats{
		ElementsPrev: int64(tally[0]),
		Refined:      int64(tally[1]),
		Coarsened:    int64(tally[2]),
		BalanceAdded: int64(tally[3]),
		Moved:        int64(tally[4]),
		LevelCounts:  make([]int64, morton.MaxLevel+1),
	}
	for l := range st.LevelCounts {
		st.LevelCounts[l] = int64(tally[5+l])
	}
	// No reduction needed for the new total: a refinement adds 7 leaves,
	// a merged family of 8 removes 7.
	st.ElementsNow = st.ElementsPrev + 7*st.Refined - 7*st.Coarsened/8 + st.BalanceAdded
	st.Unchanged = st.ElementsPrev - st.Refined - st.Coarsened
	return nm, out, st
}
