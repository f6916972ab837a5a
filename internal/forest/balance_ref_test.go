package forest

// The hash-set ripple that Balance used before it became a level sweep
// over the sorted leaf array (PR 20), kept verbatim as the test oracle:
// the balanced closure of a forest is unique, so the sweep must return
// the same leaves on every rank, the same count, and — because each
// exchange round applies the same effective requests — enter the same
// number of collectives.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rhea/internal/morton"
	"rhea/internal/sim"
)

func balanceRef(f *Forest) int {
	set := make(map[Octant]struct{}, len(f.leaves))
	for _, o := range f.leaves {
		set[o] = struct{}{}
	}
	before := len(f.leaves)
	pending := append([]Octant(nil), f.leaves...)

	for {
		var remote []Octant
		for len(pending) > 0 {
			o := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if _, live := set[o]; !live {
				continue
			}
			if o.O.Level <= 1 {
				continue
			}
			// All 26 neighbor directions, within the tree and across
			// tree boundaries alike.
			for _, d := range Dirs26 {
				fn, ok := f.Neighbor(o, d)
				if !ok {
					continue
				}
				pending = enforceRef(set, fn, o.O.Level, pending)
				if !f.Contains(fn) {
					remote = append(remote, fn)
				}
			}
		}
		incoming := f.exchange(remote)
		changed := int64(0)
		for _, n := range incoming {
			if n.O.Level <= 1 {
				continue
			}
			before := len(pending)
			pending = enforceRef(set, n, n.O.Level, pending)
			if len(pending) != before {
				changed = 1
			}
		}
		if f.rank.AllreduceInt64(changed) == 0 {
			break
		}
	}

	f.leaves = f.leaves[:0]
	for o := range set {
		f.leaves = append(f.leaves, o)
	}
	sort.Slice(f.leaves, func(i, j int) bool { return Less(f.leaves[i], f.leaves[j]) })
	f.updateStarts()
	return len(f.leaves) - before
}

// enforceRef splits any local strict ancestor of n at level < reqLevel-1.
func enforceRef(set map[Octant]struct{}, n Octant, reqLevel uint8, pending []Octant) []Octant {
	if reqLevel < 2 {
		return pending
	}
	for {
		found := false
		for l := int(reqLevel) - 2; l >= 0; l-- {
			a := Octant{Tree: n.Tree, O: n.O.Ancestor(uint8(l))}
			if _, ok := set[a]; ok {
				delete(set, a)
				for i := 0; i < 8; i++ {
					ch := Octant{Tree: a.Tree, O: a.O.Child(i)}
					set[ch] = struct{}{}
					pending = append(pending, ch)
				}
				found = true
				break
			}
		}
		if !found {
			return pending
		}
	}
}

// compareWithRef balances two copies of f's leaves — one with Balance,
// one with the reference ripple — and checks leaves, return value and
// collective-call count rank by rank. It returns the balanced forest.
func compareWithRef(t *testing.T, f *Forest, label string) *Forest {
	t.Helper()
	r := f.rank
	got := FromLeaves(r, f.Conn, f.leaves)
	want := FromLeaves(r, f.Conn, f.leaves)
	s0 := r.Stats()
	nGot := got.Balance()
	s1 := r.Stats()
	nWant := balanceRef(want)
	s2 := r.Stats()
	if nGot != nWant {
		t.Errorf("%s rank %d: Balance added %d leaves, reference %d", label, r.ID(), nGot, nWant)
	}
	if a, b := s1.CollectiveCalls-s0.CollectiveCalls, s2.CollectiveCalls-s1.CollectiveCalls; a != b {
		t.Errorf("%s rank %d: Balance entered %d collectives, reference %d", label, r.ID(), a, b)
	}
	if len(got.leaves) != len(want.leaves) {
		t.Errorf("%s rank %d: %d leaves, reference %d", label, r.ID(), len(got.leaves), len(want.leaves))
		return got
	}
	for i := range got.leaves {
		if got.leaves[i] != want.leaves[i] {
			t.Errorf("%s rank %d: leaf %d is %v, reference %v", label, r.ID(), i, got.leaves[i], want.leaves[i])
			break
		}
	}
	return got
}

// checkFixpoint verifies that balancing a balanced forest adds nothing
// and leaves every rank's leaves untouched.
func checkFixpoint(t *testing.T, f *Forest, label string) {
	t.Helper()
	before := append([]Octant(nil), f.leaves...)
	if a := f.rank.AllreduceInt64(int64(f.Balance())); a != 0 {
		t.Errorf("%s: second balance added %d leaves", label, a)
	}
	if len(f.leaves) != len(before) {
		t.Errorf("%s rank %d: re-balance changed the leaf count", label, f.rank.ID())
		return
	}
	for i := range before {
		if f.leaves[i] != before[i] {
			t.Errorf("%s rank %d: re-balance changed leaf %d", label, f.rank.ID(), i)
			return
		}
	}
}

func TestBalanceMatchesReference(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	forEachCase(t, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(t *testing.T, c *Connectivity, p int) {
		for seed := int64(1); seed <= seeds; seed++ {
			label := fmt.Sprintf("seed %d", seed)
			sim.Run(p, func(r *sim.Rank) {
				// Every rank adapts its own leaves from its own stream, so
				// level jumps land on rank boundaries as often as inside.
				rng := rand.New(rand.NewSource(seed*1000 + int64(p)*10 + int64(r.ID())))
				f := New(r, c, 1)
				for pass := 0; pass < 4; pass++ {
					f.Refine(func(Octant) bool { return rng.Intn(4) == 0 })
					if pass == 1 {
						f.Partition()
					}
				}
				f.Coarsen(func(Octant) bool { return rng.Intn(3) == 0 })
				f = compareWithRef(t, f, label)
				checkFixpoint(t, f, label)
				// A second adaptation of the balanced result: the input the
				// time loop hands to Balance every cycle.
				f.Coarsen(func(Octant) bool { return rng.Intn(2) == 0 })
				f.Refine(func(Octant) bool { return rng.Intn(6) == 0 })
				compareWithRef(t, f, label+" re-adapted")
			})
		}
	})
}

// Point refinements five levels deep against the coarsest possible
// neighbours: at both ends of every rank's curve segment (next to a rank
// boundary) and in the first and last corner of every tree (next to a
// tree face, edge and corner at once), so the ripple has to cross ranks
// and trees several levels deep.
func TestBalanceMatchesReferenceDeep(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 5, 8}, func(t *testing.T, c *Connectivity, p int) {
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 1)
			f.Partition()
			for pass := 0; pass < 5; pass++ {
				n := len(f.leaves)
				marks := make([]bool, n)
				for i, o := range f.leaves {
					h := o.O.Len()
					first := o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0
					last := o.O.X+h == morton.RootLen && o.O.Y+h == morton.RootLen && o.O.Z+h == morton.RootLen
					marks[i] = first || last || i == 0 || i == n-1
				}
				f.RefineMarked(marks)
			}
			lo, hi := f.MinMaxLevel()
			if hi-lo < 4 {
				t.Errorf("level jump %d, want >= 4", hi-lo)
			}
			f = compareWithRef(t, f, "deep")
			checkFixpoint(t, f, "deep")
		})
	})
}
