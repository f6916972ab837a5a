package forest

// The hash-set ripple that Balance used before it became a level sweep
// over the sorted leaf array, kept verbatim as the test oracle: the
// balanced closure of a forest is unique, so the sweep must return the
// same leaves on every rank and the same count. The reference takes two
// collectives per exchange round and a trailing exchange of the partition
// markers; Balance enters exactly one, its single demand exchange, however
// far the ripple crosses ranks.

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
// one with the reference ripple — and checks leaves and return value rank
// by rank, and that Balance entered one collective. It returns the
// balanced forest.
func compareWithRef(t *testing.T, f *Forest, label string) *Forest {
	t.Helper()
	r := f.rank
	got := FromLeaves(r, f.Conn, f.leaves)
	want := FromLeaves(r, f.Conn, f.leaves)
	s0 := r.Stats()
	nGot := got.Balance()
	s1 := r.Stats()
	nWant := balanceRef(want)
	if nGot != nWant {
		t.Errorf("%s rank %d: Balance added %d leaves, reference %d", label, r.ID(), nGot, nWant)
	}
	if n := s1.CollectiveCalls - s0.CollectiveCalls; n != 1 {
		t.Errorf("%s rank %d: Balance entered %d collectives, want 1", label, r.ID(), n)
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
			// Cuts at random leaves, empty ranks and split families
			// included, under point refinements up to level 6: segments
			// that are not convex and ripples that leave a segment and
			// come back through another. One seed: the reference is slow
			// on these forests.
			if seed > 1 {
				continue
			}
			sim.Run(p, func(r *sim.Rank) {
				f := randomCutForest(r, c, seed)
				for pass := int64(0); pass < 2; pass++ {
					f.Refine(func(o Octant) bool { return o.O.Level < 6 && octHash(o, seed+pass)%11 == 0 })
				}
				compareWithRef(t, f, label+" random cuts")
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

// exchange sends each request to the other ranks whose segment overlaps
// it and returns the requests received (collective).
func (f *Forest) exchange(reqs []Octant) []Octant {
	byRank := make([][]Octant, f.rank.Size())
	var owners []int
	for _, n := range reqs {
		owners = f.Owners(n, owners[:0])
		for _, rk := range owners {
			if rk != f.rank.ID() {
				byRank[rk] = append(byRank[rk], n)
			}
		}
	}
	return f.ExchangeOctants(byRank)
}

// tileToward tiles octant o with leaves, splitting every octant that
// contains the point (x, y, z) of o's tree down to level deep.
func tileToward(o Octant, x, y, z uint32, deep uint8, out []Octant) []Octant {
	h := o.O.Len()
	if o.O.Level < deep && o.O.X <= x && x < o.O.X+h && o.O.Y <= y && y < o.O.Y+h && o.O.Z <= z && z < o.O.Z+h {
		for k := 0; k < 8; k++ {
			out = tileToward(Octant{Tree: o.Tree, O: o.O.Child(k)}, x, y, z, deep, out)
		}
		return out
	}
	return append(out, o)
}

// A ripple that leaves the sender's segment through a child-0 parent P
// whose own parent Q is the last child of its parent G: in the unit box,
// rank 0 holds the first seven level-2 children of the low octant G,
// refined to level 5 beside P's -x face; rank 1 holds Q = child 7 of G as
// one leaf; rank 2 holds the seven other level-1 octants. Rank 0's
// level-4 demand inside P implies, through P's siblings, that no leaf
// contain Q's neighbours, which lie in rank 2's coarse leaves across Q's
// high faces, edges and corner. Only rank 0 can carry that requirement
// there: rank 1 learns it from rank 0's demands only after the exchange.
// P and Q share their curve position, so a parent recorded as followed by
// position alone would skip Q and leave the forest unbalanced.
func TestBalanceFollowsChildZeroParent(t *testing.T) {
	c := BrickConnectivity(1, 1, 1)
	g := Octant{O: morton.Root().Child(0)}
	q := Octant{O: g.O.Child(7)}
	h := uint32(morton.RootLen / 32) // the level-5 length
	var segs [3][]Octant
	for k := 0; k < 7; k++ {
		// The point lies just across P's -x face, in G's child 6.
		segs[0] = tileToward(Octant{O: g.O.Child(k)}, q.O.X-1, q.O.Y+h/2, q.O.Z+h/2, 5, segs[0])
	}
	segs[1] = []Octant{q}
	for k := 1; k < 8; k++ {
		segs[2] = append(segs[2], Octant{O: morton.Root().Child(k)})
	}
	sim.Run(3, func(r *sim.Rank) {
		f := compareWithRef(t, FromLeaves(r, c, segs[r.ID()]), "child-0 parent")
		checkFixpoint(t, f, "child-0 parent")
	})
}
