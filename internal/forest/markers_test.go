package forest

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rhea/internal/morton"
	"rhea/internal/sim"
)

// TestMarkersMoveOnlyInPartition checks the invariant that lets the local
// adaptation steps keep their partition markers: refining, coarsening and
// balancing never move a rank's first-leaf anchor, so after each of them
// the markers equal the ones a fresh exchange (updateStarts) computes. It
// runs on random forests at 1 to 8 ranks whose leaves are cut at random
// points, so some ranks hold nothing and some cuts split a family.
func TestMarkersMoveOnlyInPartition(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(t *testing.T, c *Connectivity, p int) {
		for seed := int64(1); seed <= 3; seed++ {
			sim.Run(p, func(r *sim.Rank) {
				f := randomCutForest(r, c, seed)
				check := func(g *Forest, step string) {
					t.Helper()
					kept := g.starts
					g.updateStarts()
					if !slices.Equal(kept, g.starts) {
						t.Errorf("seed %d rank %d: after %s the markers read %v, a fresh exchange gives %v",
							seed, r.ID(), step, kept, g.starts)
					}
				}
				check(f, "FromLeaves")
				f.CoarsenMarked(leafMarks(f, seed, 1, 3, 4))
				check(f, "CoarsenMarked")
				f.RefineMarked(leafMarks(f, seed, 2, 1, 5))
				check(f, "RefineMarked")
				f.Balance()
				check(f, "Balance")
				coarsen, refine := leafMarks(f, seed, 3, 3, 4), leafMarks(f, seed, 4, 1, 6)
				for i := range refine {
					refine[i] = refine[i] && !coarsen[i]
				}
				f.AdaptMarked(coarsen, refine)
				check(f, "AdaptMarked")
				f.Refine(func(o Octant) bool { return o.O.Level < 5 && octHash(o, seed+5)%7 == 0 })
				check(f, "Refine")
				f.Balance()
				check(f, "second Balance")
				cc, _ := f.CoarsenedCopy()
				check(cc, "CoarsenedCopy")
			})
		}
	})
}

// randomCutForest builds the same random global forest on every rank,
// two to four levels deep, and gives rank i the leaves between the i-th
// and (i+1)-th of p-1 random cuts, so a rank may be empty (collective).
func randomCutForest(r *sim.Rank, c *Connectivity, seed int64) *Forest {
	var all []Octant
	for tr := 0; tr < c.NumTrees(); tr++ {
		var add func(o Octant)
		add = func(o Octant) {
			if o.O.Level < 2 || o.O.Level < 4 && octHash(o, seed)%3 == 0 {
				for k := 0; k < 8; k++ {
					add(Octant{Tree: o.Tree, O: o.O.Child(k)})
				}
				return
			}
			all = append(all, o)
		}
		add(Octant{Tree: int32(tr), O: morton.Root()})
	}
	rng := rand.New(rand.NewSource(seed*100 + int64(r.Size()))) // same stream on all ranks
	cuts := make([]int, r.Size()+1)
	cuts[r.Size()] = len(all)
	for i := 1; i < r.Size(); i++ {
		if rng.Intn(3) == 0 {
			cuts[i] = cuts[i-1] // an empty rank
			continue
		}
		cuts[i] = rng.Intn(len(all) + 1)
	}
	sort.Ints(cuts)
	return FromLeaves(r, c, all[cuts[r.ID()]:cuts[r.ID()+1]])
}

// leafMarks marks about num in den local leaves below level 5, by a
// hash of the leaf and the salt, so the marks do not depend on the
// partition.
func leafMarks(f *Forest, seed, salt int64, num, den uint64) []bool {
	marks := make([]bool, f.NumLocal())
	for i, o := range f.Leaves() {
		marks[i] = o.O.Level < 5 && octHash(o, seed+salt)%den < num
	}
	return marks
}

func octHash(o Octant, seed int64) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed, o.Tree, o.O.Key())
	return h.Sum64()
}
