package forest

import (
	"math/rand"
	"sort"
	"testing"

	"rhea/internal/morton"
	"rhea/internal/sim"
)

// TestPropertyRandomAdaptationPipeline drives random sequences of
// refine/coarsen/balance/partition operations on every test connectivity
// and rank count and checks the global invariants: the local leaves stay
// sorted after every step, and after a final balance the leaves tile the
// forest exactly and satisfy 2:1 across tree boundaries. Each case runs
// with a fixed seed named by its subtest, so a CI failure names the exact
// case to replay.
func TestPropertyRandomAdaptationPipeline(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 4}, func(t *testing.T, c *Connectivity, p int) {
		for seed := int64(1); seed <= 2; seed++ {
			g := &gatherF{}
			sim.Run(p, func(r *sim.Rank) {
				rng := rand.New(rand.NewSource(seed*10 + int64(p))) // same stream on all ranks
				f := New(r, c, 2)
				for step := 0; step < 4; step++ {
					op := rng.Intn(4)
					// Deterministic position-based predicates so ranks agree.
					cut := uint32(rng.Intn(morton.RootLen))
					axis := rng.Intn(3)
					sel := func(o Octant) bool {
						return [3]uint32{o.O.X, o.O.Y, o.O.Z}[axis] < cut
					}
					switch op {
					case 0:
						f.Refine(func(o Octant) bool { return o.O.Level < 5 && sel(o) })
					case 1:
						f.Coarsen(func(parent Octant) bool { return parent.O.Level >= 1 && sel(parent) })
					case 2:
						f.Balance()
					case 3:
						f.Partition()
					}
					if err := f.CheckLocalOrder(); err != nil {
						t.Errorf("seed %d step %d: %v", seed, step, err)
					}
				}
				f.Balance()
				g.add(f.Leaves())
			})
			leaves := g.sorted()
			checkTiling(t, c, leaves)
			checkBalanced(t, c, leaves)
		}
	})
}

// TestPropertyPartitionPreservesLeafSet: partitioning must permute
// nothing — the global multiset of leaves is invariant.
func TestPropertyPartitionPreservesLeafSet(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 4}, func(t *testing.T, c *Connectivity, p int) {
		for seed := int64(1); seed <= 3; seed++ {
			before, after := &gatherF{}, &gatherF{}
			sim.Run(p, func(r *sim.Rank) {
				rng := rand.New(rand.NewSource(seed))
				f := New(r, c, 2)
				cut := uint32(rng.Intn(morton.RootLen))
				f.Refine(func(o Octant) bool { return o.O.X < cut })
				before.add(f.Leaves())
				f.Partition()
				after.add(f.Leaves())
			})
			a, b := before.sorted(), after.sorted()
			if len(a) != len(b) {
				t.Fatalf("seed %d: leaf count changed: %d -> %d", seed, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: leaf multiset changed at %d", seed, i)
				}
			}
		}
	})
}

// TestPropertyOwnersCoverEverything: for random octants, Owners must
// return a non-empty, sorted run of adjacent ranks (contiguous segment
// coverage along the forest curve).
func TestPropertyOwnersCoverEverything(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 4, 5}, func(t *testing.T, c *Connectivity, p int) {
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 2)
			f.Refine(func(o Octant) bool { return o.O.Z == 0 })
			rng := rand.New(rand.NewSource(77))
			for it := 0; it < 200; it++ {
				l := uint8(rng.Intn(4))
				mask := ^(uint32(1)<<(morton.MaxLevel-uint32(l)) - 1)
				o := Octant{Tree: int32(rng.Intn(c.NumTrees())), O: morton.Octant{
					X:     uint32(rng.Intn(morton.RootLen)) & mask,
					Y:     uint32(rng.Intn(morton.RootLen)) & mask,
					Z:     uint32(rng.Intn(morton.RootLen)) & mask,
					Level: l,
				}}
				owners := f.Owners(o, nil)
				if len(owners) == 0 {
					t.Fatalf("octant %v has no owners", o)
				}
				if !sort.IntsAreSorted(owners) {
					t.Fatalf("owners not sorted: %v", owners)
				}
				for i := 1; i < len(owners); i++ {
					if owners[i] != owners[i-1]+1 {
						t.Fatalf("owners not contiguous: %v", owners)
					}
				}
			}
		})
	})
}
