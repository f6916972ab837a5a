package forest

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"rhea/internal/morton"
	"rhea/internal/sim"
)

func TestBrickConnectivity(t *testing.T) {
	c := BrickConnectivity(2, 1, 1)
	if c.NumTrees() != 2 {
		t.Fatalf("trees = %d", c.NumTrees())
	}
	// Tree 0's +x face connects to tree 1's -x face with identity
	// orientation.
	fc := c.conns[0][1]
	if !fc.ok || fc.tree != 1 || fc.face != 0 {
		t.Fatalf("conn = %+v", fc)
	}
	if fc.perm != [3]int8{0, 1, 2} || fc.sign != [3]int8{1, 1, 1} {
		t.Fatalf("brick transform not identity: %+v", fc)
	}
	// Other faces of tree 0 are boundary.
	for f := 2; f < 6; f++ {
		if c.conns[0][f].ok {
			t.Errorf("face %d should be boundary", f)
		}
	}
}

func TestCubedSphereTopology(t *testing.T) {
	for _, n := range []int{1, 2} {
		c := CubedSphere(n)
		want := 6 * n * n
		if c.NumTrees() != want {
			t.Fatalf("n=%d: %d trees, want %d", n, c.NumTrees(), want)
		}
		// Radial faces (-z, +z in tree coordinates) are boundary; the four
		// lateral faces are always connected.
		for tr := 0; tr < c.NumTrees(); tr++ {
			for f := 0; f < 4; f++ {
				if !c.conns[tr][f].ok {
					t.Fatalf("n=%d tree %d lateral face %d unconnected", n, tr, f)
				}
			}
			for f := 4; f < 6; f++ {
				if c.conns[tr][f].ok {
					t.Fatalf("n=%d tree %d radial face %d should be boundary", n, tr, f)
				}
			}
		}
	}
}

// faceNeighbor is the same-level neighbour across face fc, through
// Neighbor's inter-tree hops; false at a physical boundary.
func faceNeighbor(f *Forest, o Octant, fc int) (Octant, bool) {
	var d [3]int
	d[faceNormalAxis[fc]] = faceNormalSign[fc]
	return f.Neighbor(o, d)
}

// CheckLocalOrder verifies the local sort invariant.
func (f *Forest) CheckLocalOrder() error {
	for i := 1; i < len(f.leaves); i++ {
		if !Less(f.leaves[i-1], f.leaves[i]) {
			return fmt.Errorf("forest: leaves out of order at %d", i)
		}
	}
	return nil
}

func TestFaceNeighborRoundTrip(t *testing.T) {
	conns := map[string]*Connectivity{
		"brick":   BrickConnectivity(2, 2, 1),
		"sphere1": CubedSphere(1),
		"sphere2": CubedSphere(2),
	}
	for name, c := range conns {
		sim.Run(1, func(r *sim.Rank) {
			f := New(r, c, 2)
			for _, o := range f.Leaves() {
				for face := 0; face < 6; face++ {
					n, ok := faceNeighbor(f, o, face)
					if !ok || n.Tree == o.Tree {
						continue // boundary, or within the tree
					}
					if !n.O.Valid() {
						t.Fatalf("%s: invalid neighbor %v of %v", name, n, o)
					}
					// Crossing back through the neighbor's connecting face
					// must return the original octant.
					back, ok2 := faceNeighbor(f, n, int(c.conns[o.Tree][face].face))
					if !ok2 || back != o {
						t.Fatalf("%s: round trip failed: %v -> %v -> %v", name, o, n, back)
					}
				}
			}
		})
	}
}

func TestNewUniformCounts(t *testing.T) {
	c := CubedSphere(2)
	for _, p := range []int{1, 5} {
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 1)
			if g := f.NumGlobal(); g != 24*8 {
				t.Errorf("global leaves %d, want 192", g)
			}
			if err := f.CheckLocalOrder(); err != nil {
				t.Error(err)
			}
		})
	}
}

// gatherF collects leaves across ranks.
type gatherF struct {
	mu sync.Mutex
	ls []Octant
}

func (g *gatherF) add(ls []Octant) {
	g.mu.Lock()
	g.ls = append(g.ls, ls...)
	g.mu.Unlock()
}

// findIn locates the leaf containing o in a sorted global set.
func findIn(ls []Octant, o Octant) (Octant, bool) {
	i := sort.Search(len(ls), func(i int) bool {
		if ls[i].Tree != o.Tree {
			return ls[i].Tree > o.Tree
		}
		return ls[i].O.Key() > o.O.Key()
	})
	if i == 0 {
		return Octant{}, false
	}
	l := ls[i-1]
	if l.Tree == o.Tree && l.O.ContainsOrEqual(o.O) {
		return l, true
	}
	return Octant{}, false
}

func TestBalanceAcrossTrees(t *testing.T) {
	c := BrickConnectivity(2, 1, 1)
	for _, p := range []int{1, 3} {
		g := &gatherF{}
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 1)
			// Refine tree 0 heavily near its +x face (the interface).
			for i := 0; i < 3; i++ {
				f.Refine(func(o Octant) bool {
					return o.Tree == 0 && o.O.X+o.O.Len() == morton.RootLen && o.O.Y == 0 && o.O.Z == 0
				})
			}
			f.Balance()
			if err := f.CheckLocalOrder(); err != nil {
				t.Error(err)
			}
			g.add(f.Leaves())
		})
		sort.Slice(g.ls, func(i, j int) bool { return Less(g.ls[i], g.ls[j]) })
		// Oracle: every leaf's same-level face neighbor (possibly across
		// the tree interface) must be covered by a leaf within one level.
		sim.Run(1, func(r *sim.Rank) {
			fAll := New(r, c, 0)
			fAll.leaves = g.ls
			for _, o := range g.ls {
				for face := 0; face < 6; face++ {
					n, ok := faceNeighbor(fAll, o, face)
					if !ok {
						continue
					}
					leaf, found := findIn(g.ls, n)
					if found && int(leaf.O.Level) < int(o.O.Level)-1 {
						t.Fatalf("p=%d: face 2:1 violated: %v (l%d) vs %v (l%d)",
							p, o, o.O.Level, leaf, leaf.O.Level)
					}
				}
			}
		})
	}
}

func TestBalanceOnSphere(t *testing.T) {
	c := CubedSphere(2)
	g := &gatherF{}
	sim.Run(4, func(r *sim.Rank) {
		f := New(r, c, 1)
		for i := 0; i < 2; i++ {
			f.Refine(func(o Octant) bool { return o.Tree == 0 && o.O.X == 0 && o.O.Y == 0 })
		}
		f.Balance()
		g.add(f.Leaves())
	})
	sort.Slice(g.ls, func(i, j int) bool { return Less(g.ls[i], g.ls[j]) })
	sim.Run(1, func(r *sim.Rank) {
		fAll := New(r, c, 0)
		fAll.leaves = g.ls
		for _, o := range g.ls {
			for face := 0; face < 6; face++ {
				n, ok := faceNeighbor(fAll, o, face)
				if !ok {
					continue
				}
				if leaf, found := findIn(g.ls, n); found && int(leaf.O.Level) < int(o.O.Level)-1 {
					t.Fatalf("sphere face 2:1 violated: %v vs %v", o, leaf)
				}
			}
		}
	})
}

func TestPartitionBalancesLoad(t *testing.T) {
	c := CubedSphere(1)
	sim.Run(5, func(r *sim.Rank) {
		f := New(r, c, 1)
		f.Refine(func(o Octant) bool { return o.Tree < 2 })
		f.Partition()
		n := float64(f.NumLocal())
		max := r.Allreduce(n, sim.OpMax)
		min := r.Allreduce(n, sim.OpMin)
		if max-min > 1 {
			t.Errorf("imbalance: %v..%v", min, max)
		}
		if err := f.CheckLocalOrder(); err != nil {
			t.Error(err)
		}
	})
}

func TestCoarsenFamilies(t *testing.T) {
	c := BrickConnectivity(1, 1, 1)
	sim.Run(1, func(r *sim.Rank) {
		f := New(r, c, 2)
		n0 := f.NumGlobal()
		f.Coarsen(func(Octant) bool { return true })
		if g := f.NumGlobal(); g != n0/8 {
			t.Errorf("coarsen: %d -> %d", n0, g)
		}
	})
}

// CoarsenedCopy must produce a strictly coarser, balanced forest while
// leaving the receiver untouched and preserving each rank's curve
// coverage (first leaf position unchanged) — the invariants multigrid
// level extraction depends on.
func TestCoarsenedCopy(t *testing.T) {
	c := BrickConnectivity(2, 1, 1)
	for _, p := range []int{1, 3} {
		sim.Run(p, func(r *sim.Rank) {
			f := New(r, c, 2)
			f.Refine(func(o Octant) bool { return o.Tree == 0 && o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
			f.Balance()
			n0 := f.NumGlobal()
			leaves0 := append([]Octant(nil), f.Leaves()...)

			cc, merged := f.CoarsenedCopy()
			if merged == 0 {
				t.Errorf("p=%d: no families merged", p)
			}
			if g := cc.NumGlobal(); g >= n0 {
				t.Errorf("p=%d: copy not coarser: %d -> %d", p, n0, g)
			}
			if err := cc.CheckLocalOrder(); err != nil {
				t.Errorf("p=%d: %v", p, err)
			}
			if len(f.Leaves()) != len(leaves0) {
				t.Fatalf("p=%d: receiver mutated", p)
			}
			for i, o := range f.Leaves() {
				if o != leaves0[i] {
					t.Fatalf("p=%d: receiver leaf %d changed", p, i)
				}
			}
			if len(leaves0) > 0 && len(cc.Leaves()) > 0 {
				if g0, g1 := gpos(leaves0[0]), gpos(cc.Leaves()[0]); g0 != g1 {
					t.Errorf("p=%d: curve coverage moved: %d -> %d", p, g0, g1)
				}
			}
		})
	}
}

func TestTreeCoordGeometry(t *testing.T) {
	c := CubedSphere(1)
	// Tree corner at inner radius maps to radius ~1, outer to ~2.
	for tr := int32(0); tr < 6; tr++ {
		inner := c.TreeCoord(tr, [3]uint32{morton.RootLen / 2, morton.RootLen / 2, 0})
		outer := c.TreeCoord(tr, [3]uint32{morton.RootLen / 2, morton.RootLen / 2, morton.RootLen})
		// Trilinear blending of the corner vertices pulls face centers
		// inside the shell (chord effect): the 6-tree sphere face center
		// sits at radius 1/sqrt(3) of the corner radius.
		ri := norm3(inner)
		ro := norm3(outer)
		if ri < 0.5 || ri > 1.01 {
			t.Errorf("tree %d inner shell radius %v", tr, ri)
		}
		if ro < 1.0 || ro > 2.01 {
			t.Errorf("tree %d outer shell radius %v", tr, ro)
		}
		if ro <= ri {
			t.Errorf("tree %d radial ordering broken", tr)
		}
	}
}

func norm3(p [3]float64) float64 {
	return math.Sqrt(p[0]*p[0] + p[1]*p[1] + p[2]*p[2])
}

func TestFindContaining(t *testing.T) {
	c := BrickConnectivity(2, 1, 1)
	sim.Run(1, func(r *sim.Rank) {
		f := New(r, c, 1)
		for i, o := range f.Leaves() {
			child := Octant{Tree: o.Tree, O: o.O.Child(5)}
			got, idx, ok := f.FindContaining(child)
			if !ok || got != o || idx != i {
				t.Fatalf("FindContaining(%v) = %v,%d,%v", child, got, idx, ok)
			}
		}
	})
}
