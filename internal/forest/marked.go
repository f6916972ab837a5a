package forest

import (
	"slices"

	"rhea/internal/morton"
)

// RefineMarked replaces each local leaf whose mark is set by its eight
// children (marks is indexed like Leaves). It returns the number of
// leaves refined. Purely local.
func (f *Forest) RefineMarked(marks []bool) int {
	out := make([]Octant, 0, len(f.leaves))
	n := 0
	for i, o := range f.leaves {
		if marks[i] && o.O.Level < morton.MaxLevel {
			for c := 0; c < 8; c++ {
				out = append(out, Octant{Tree: o.Tree, O: o.O.Child(c)})
			}
			n++
		} else {
			out = append(out, o)
		}
	}
	f.leaves = out
	f.updateStarts()
	return n
}

// CoarsenMarked replaces every complete local family of eight siblings,
// all of whose marks are set, by their parent. It returns the number of
// families coarsened. Purely local.
func (f *Forest) CoarsenMarked(marks []bool) int {
	return f.coarsen(func(i int, _ Octant) bool { return !slices.Contains(marks[i:i+8], false) })
}

// AdaptMarked is CoarsenMarked followed by RefineMarked, with both mark
// lists given for the current leaves (a leaf carries at most one of the
// two marks). The refine marks are carried across the coarsening by
// walking the old and new leaves together: a new leaf is either the old
// leaf at the cursor or the parent of the eight old leaves there. It
// returns the number of families coarsened and of leaves refined.
func (f *Forest) AdaptMarked(coarsen, refine []bool) (int, int) {
	old := f.leaves // coarsening builds a new array
	nCoarse := f.CoarsenMarked(coarsen)
	carried := make([]bool, len(f.leaves))
	oi := 0
	for i, o := range f.leaves {
		if old[oi] == o {
			carried[i] = refine[oi]
			oi++
		} else {
			oi += 8
		}
	}
	return nCoarse, f.RefineMarked(carried)
}

// CountCoarsenableFamilies returns how many complete local families have
// all eight marks set, without modifying the forest.
func (f *Forest) CountCoarsenableFamilies(marks []bool) int {
	n := 0
	for i := 0; i < len(f.leaves); i++ {
		if _, ok := f.family(i); ok && !slices.Contains(marks[i:i+8], false) {
			n++
			i += 7
		}
	}
	return n
}

// family reports whether the eight leaves from index i are the children
// of one parent, which it returns.
func (f *Forest) family(i int) (Octant, bool) {
	o := f.leaves[i]
	if o.O.Level == 0 || o.O.ChildID() != 0 || i+8 > len(f.leaves) {
		return Octant{}, false
	}
	parent := Octant{Tree: o.Tree, O: o.O.Parent()}
	for j := 1; j < 8; j++ {
		if f.leaves[i+j] != (Octant{Tree: o.Tree, O: parent.O.Child(j)}) {
			return Octant{}, false
		}
	}
	return parent, true
}

// coarsen merges every complete local family for which should holds,
// given the index of its first leaf and its parent, and returns the
// number of families merged.
func (f *Forest) coarsen(should func(i int, parent Octant) bool) int {
	out := make([]Octant, 0, len(f.leaves))
	n := 0
	for i := 0; i < len(f.leaves); i++ {
		if parent, ok := f.family(i); ok && should(i, parent) {
			out = append(out, parent)
			i += 7
			n++
		} else {
			out = append(out, f.leaves[i])
		}
	}
	f.leaves = out
	f.updateStarts()
	return n
}
