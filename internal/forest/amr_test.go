package forest

// The dynamic AMR functions (NewTree, RefineTree, CoarsenTree,
// BalanceTree, PartitionTree) checked for their global invariants — the
// leaves tile every tree exactly, stay in curve order, satisfy the full
// face+edge+corner 2:1 condition across tree boundaries after Balance,
// and split evenly — on the unit cube (one tree), a two-tree brick and a
// six-tree cubed sphere at several rank counts.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rhea/internal/morton"
	"rhea/internal/sim"
)

// testConns are the macro meshes every table-driven test below runs on.
var testConns = []struct {
	name string
	conn *Connectivity
}{
	{"box", BrickConnectivity(1, 1, 1)},
	{"brick2", BrickConnectivity(2, 1, 1)},
	{"sphere6", CubedSphere(1)},
}

// forEachCase runs fn(t, conn, ranks) as a subtest per connectivity and
// rank count.
func forEachCase(t *testing.T, ranks []int, fn func(t *testing.T, c *Connectivity, p int)) {
	for _, tc := range testConns {
		for _, p := range ranks {
			tc, p := tc, p
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) { fn(t, tc.conn, p) })
		}
	}
}

func (g *gatherF) sorted() []Octant {
	sort.Slice(g.ls, func(i, j int) bool { return Less(g.ls[i], g.ls[j]) })
	return g.ls
}

// checkTiling verifies that the leaves exactly tile every tree with no
// overlap: consecutive curve intervals must abut and the total span must
// cover the forest curve.
func checkTiling(t *testing.T, c *Connectivity, leaves []Octant) {
	t.Helper()
	var pos uint64
	for i, o := range leaves {
		if gpos(o) != pos {
			t.Fatalf("leaf %d (%v): curve position %d, want %d (gap or overlap)", i, o, gpos(o), pos)
		}
		pos += gspan(o)
	}
	if want := uint64(c.NumTrees()) * curveEnd; pos != want {
		t.Fatalf("leaves cover %d curve positions, want %d", pos, want)
	}
}

// checkBalanced verifies the full (face+edge+corner) 2:1 condition on a
// sorted global leaf set, following neighbors across tree boundaries.
func checkBalanced(t *testing.T, c *Connectivity, leaves []Octant) {
	t.Helper()
	for _, o := range leaves {
		l := int64(o.O.Len())
		for _, d := range Dirs26 {
			p := [3]int64{int64(o.O.X) + int64(d[0])*l, int64(o.O.Y) + int64(d[1])*l, int64(o.O.Z) + int64(d[2])*l}
			n, ok := c.MapOctant(o.Tree, p, o.O.Level)
			if !ok {
				continue
			}
			if leaf, found := findIn(leaves, n); found && int(leaf.O.Level) < int(o.O.Level)-1 {
				t.Fatalf("2:1 violation: leaf %v (level %d) adjacent to leaf %v (level %d)",
					o, o.O.Level, leaf, leaf.O.Level)
			}
		}
	}
}

// originCorner selects the leaves at tree 0's origin.
func originCorner(o Octant) bool {
	return o.Tree == 0 && o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0
}

func TestNewUniform(t *testing.T) {
	forEachCase(t, []int{1, 3, 8}, func(t *testing.T, c *Connectivity, p int) {
		g := &gatherF{}
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 2)
			if err := f.CheckLocalOrder(); err != nil {
				t.Error(err)
			}
			if n, want := f.NumGlobal(), int64(64*c.NumTrees()); n != want {
				t.Errorf("global leaves = %d, want %d", n, want)
			}
			g.add(f.Leaves())
		})
		leaves := g.sorted()
		checkTiling(t, c, leaves)
		for _, o := range leaves {
			if o.O.Level != 2 {
				t.Fatalf("leaf %v not at level 2", o)
			}
		}
	})
}

func TestNewEvenDistribution(t *testing.T) {
	sim.Run(5, func(r *sim.Rank) {
		f := New(r, BrickConnectivity(1, 1, 1), 2) // 64 leaves over 5 ranks: 13,13,13,13,12
		if n := f.NumLocal(); n != 12 && n != 13 {
			t.Errorf("rank %d: %d leaves", r.ID(), n)
		}
	})
}

func TestRefineAll(t *testing.T) {
	forEachCase(t, []int{4}, func(t *testing.T, c *Connectivity, p int) {
		g := &gatherF{}
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 1)
			before := f.NumLocal()
			if n := f.Refine(func(Octant) bool { return true }); n != before || f.NumLocal() != 8*before {
				t.Errorf("refined %d of %d leaves into %d", n, before, f.NumLocal())
			}
			g.add(f.Leaves())
		})
		if len(g.ls) != 64*c.NumTrees() {
			t.Fatalf("got %d leaves, want %d", len(g.ls), 64*c.NumTrees())
		}
		checkTiling(t, c, g.sorted())
	})
}

func TestRefinePredicateKeepsTiling(t *testing.T) {
	forEachCase(t, []int{3}, func(t *testing.T, c *Connectivity, p int) {
		g := &gatherF{}
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 2)
			f.Refine(func(o Octant) bool { return o.O.X == 0 && o.O.Y == 0 })
			if err := f.CheckLocalOrder(); err != nil {
				t.Error(err)
			}
			g.add(f.Leaves())
		})
		checkTiling(t, c, g.sorted())
	})
}

func TestCoarsenRoundTripSerial(t *testing.T) {
	forEachCase(t, []int{1}, func(t *testing.T, c *Connectivity, p int) {
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 2)
			orig := append([]Octant(nil), f.Leaves()...)
			f.Refine(func(Octant) bool { return true })
			if n := f.Coarsen(func(Octant) bool { return true }); n != len(orig) {
				t.Errorf("coarsened %d families, want %d", n, len(orig))
			}
			got := f.Leaves()
			if len(got) != len(orig) {
				t.Fatalf("after round trip: %d leaves, want %d", len(got), len(orig))
			}
			for i := range got {
				if got[i] != orig[i] {
					t.Fatalf("leaf %d: %v != %v", i, got[i], orig[i])
				}
			}
		})
	})
}

// Coarsen merges only complete local families (one split across a rank
// boundary stays refined); whatever merges, the leaves still tile the
// forest.
func TestCoarsenRespectsFamilies(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 4}, func(t *testing.T, c *Connectivity, p int) {
		g := &gatherF{}
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 3)
			f.Coarsen(func(Octant) bool { return true })
			if err := f.CheckLocalOrder(); err != nil {
				t.Error(err)
			}
			g.add(f.Leaves())
		})
		checkTiling(t, c, g.sorted())
	})
}

func TestBalanceCornerRefinement(t *testing.T) {
	forEachCase(t, []int{1, 4, 7}, func(t *testing.T, c *Connectivity, p int) {
		g := &gatherF{}
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 1)
			// Refine only the origin corner repeatedly to create a sharp
			// level gradient that must ripple outwards.
			for i := 0; i < 4; i++ {
				f.Refine(originCorner)
			}
			if added := f.Balance(); added < 0 {
				t.Errorf("negative added %d", added)
			}
			if err := f.CheckLocalOrder(); err != nil {
				t.Error(err)
			}
			g.add(f.Leaves())
		})
		leaves := g.sorted()
		checkTiling(t, c, leaves)
		checkBalanced(t, c, leaves)
		// The deep corner must be preserved (balance never coarsens).
		if leaves[0].O.Level != 5 {
			t.Fatalf("first leaf level %d, want 5", leaves[0].O.Level)
		}
	})
}

func TestBalanceRandomized(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 4}, func(t *testing.T, c *Connectivity, p int) {
		for seed := int64(0); seed < 3; seed++ {
			g := &gatherF{}
			sim.Run(p, func(r *sim.Rank) {
				f := New(r, c, 1)
				rng := rand.New(rand.NewSource(seed*100 + int64(r.ID())))
				for i := 0; i < 4; i++ {
					f.Refine(func(Octant) bool { return rng.Intn(4) == 0 })
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

func TestBalanceIdempotent(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 4}, func(t *testing.T, c *Connectivity, p int) {
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 1)
			for i := 0; i < 3; i++ {
				f.Refine(originCorner)
			}
			f.Balance()
			n := f.NumGlobal()
			if a := r.AllreduceInt64(int64(f.Balance())); a != 0 {
				t.Errorf("second balance added %d leaves", a)
			}
			if f.NumGlobal() != n {
				t.Errorf("leaf count changed on re-balance")
			}
		})
	})
}

func TestPartitionEvens(t *testing.T) {
	forEachCase(t, []int{6}, func(t *testing.T, c *Connectivity, p int) {
		g := &gatherF{}
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 2)
			// Create imbalance: only the low-x half of every tree refines.
			f.Refine(func(o Octant) bool { return o.O.X < morton.RootLen/2 })
			before := f.NumGlobal()
			f.Partition()
			if f.NumGlobal() != before {
				t.Errorf("partition changed global count")
			}
			n := float64(f.NumLocal())
			if max, min := r.Allreduce(n, sim.OpMax), r.Allreduce(n, sim.OpMin); max-min > 1 {
				t.Errorf("imbalance after partition: min %v max %v", min, max)
			}
			if err := f.CheckLocalOrder(); err != nil {
				t.Error(err)
			}
			g.add(f.Leaves())
		})
		checkTiling(t, c, g.sorted())
	})
}

func TestPartitionDestsRouteEverything(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 4}, func(t *testing.T, c *Connectivity, p int) {
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 2)
			f.Refine(func(o Octant) bool { return o.O.Z == 0 })
			nBefore := f.NumLocal()
			rt := f.Partition()
			if len(rt.SendCnt) != len(rt.SendTo) || len(rt.RecvCnt) != len(rt.RecvFrom) {
				t.Fatalf("route lists differ in length: %+v", rt)
			}
			sent, got := 0, 0
			arrive := make([]float64, r.Size())
			for k, d := range rt.SendTo {
				if d < 0 || d >= r.Size() {
					t.Fatalf("invalid destination %d", d)
				}
				if k > 0 && d <= rt.SendTo[k-1] {
					t.Fatalf("destinations not ascending along the curve: %v", rt.SendTo)
				}
				arrive[d] += float64(rt.SendCnt[k])
				sent += rt.SendCnt[k]
			}
			for _, n := range rt.RecvCnt {
				got += n
			}
			if sent != nBefore || got != f.NumLocal() {
				t.Errorf("rank %d: route sends %d of %d leaves and receives %d of %d", r.ID(), sent, nBefore, got, f.NumLocal())
			}
			// Every rank holds exactly what was routed to it.
			if got := r.AllreduceVec(arrive)[r.ID()]; int(got) != f.NumLocal() {
				t.Errorf("rank %d holds %d leaves, %d were routed to it", r.ID(), f.NumLocal(), int(got))
			}
		})
	})
}

func TestOwnersAndFindContaining(t *testing.T) {
	forEachCase(t, []int{4}, func(t *testing.T, c *Connectivity, p int) {
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 2)
			// Together the tree roots overlap every (non-empty) rank.
			seen := map[int]bool{}
			for tr := 0; tr < c.NumTrees(); tr++ {
				for _, ow := range f.Owners(Octant{Tree: int32(tr), O: morton.Root()}, nil) {
					seen[ow] = true
				}
			}
			if len(seen) != p {
				t.Errorf("tree roots are owned by %d of %d ranks", len(seen), p)
			}
			for i, o := range f.Leaves() {
				// Each local leaf is owned solely by this rank.
				if ow := f.Owners(o, nil); len(ow) != 1 || ow[0] != r.ID() {
					t.Errorf("leaf %v owners = %v, want [%d]", o, ow, r.ID())
				}
				// A descendant of a local leaf must be found by FindContaining.
				ch := Octant{Tree: o.Tree, O: o.O.Child(3)}
				if got, idx, ok := f.FindContaining(ch); !ok || got != o || idx != i {
					t.Errorf("FindContaining(%v) = %v,%d,%v", ch, got, idx, ok)
				}
			}
		})
	})
}

func TestShareRange(t *testing.T) {
	var total int64 = 67
	var sum int64
	prevHi := int64(0)
	for i := int64(0); i < 5; i++ {
		lo, hi := ShareRange(total, 5, i)
		if lo != prevHi {
			t.Fatalf("share %d starts at %d, want %d", i, lo, prevHi)
		}
		sum += hi - lo
		prevHi = hi
	}
	if sum != total {
		t.Fatalf("shares sum to %d", sum)
	}
}

func TestDestRankMonotone(t *testing.T) {
	var total, p int64 = 103, 7
	counts := make([]int64, p)
	prev := 0
	for g := int64(0); g < total; g++ {
		d := ShareOwner(total, p, g)
		if d < prev {
			t.Fatalf("ShareOwner not monotone at %d", g)
		}
		if lo, hi := ShareRange(total, p, int64(d)); g < lo || g >= hi {
			t.Fatalf("index %d is outside its owner %d's share [%d, %d)", g, d, lo, hi)
		}
		prev = d
		counts[d]++
	}
	for i, c := range counts {
		if c != 14 && c != 15 {
			t.Fatalf("rank %d gets %d leaves", i, c)
		}
	}
}

func TestLevelCountsAndMinMax(t *testing.T) {
	forEachCase(t, []int{1, 2, 3, 4}, func(t *testing.T, c *Connectivity, p int) {
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 2)
			f.Refine(originCorner)
			local := make([]float64, morton.MaxLevel+1)
			for _, o := range f.Leaves() {
				local[o.O.Level]++
			}
			counts := r.AllreduceVec(local)
			if want := float64(64*c.NumTrees() - 1); counts[2] != want || counts[3] != 8 {
				t.Errorf("level counts: l2=%v l3=%v, want %v and 8", counts[2], counts[3], want)
			}
			if lo, hi := f.MinMaxLevel(); lo != 2 || hi != 3 {
				t.Errorf("min/max level = %d/%d", lo, hi)
			}
		})
	})
}
