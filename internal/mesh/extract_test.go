package mesh

// Tests for multi-tree (forest) mesh extraction: global node counts on
// uniform brick and cubed-sphere forests must match the closed-form
// values on every rank count, and — the load-bearing property — the
// constrained corner evaluation must reproduce linear functions of the
// physical coordinates exactly, across tree boundaries and across
// hanging-node interfaces alike. A gid misidentification between trees,
// a wrong master, or an inconsistent geometry evaluation all break
// linear reproduction.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/sim"
)

// uniformBrickNodes is the closed-form node count of BrickConnectivity
// (nx,ny,nz) uniformly refined to the given level.
func uniformBrickNodes(nx, ny, nz int, level uint8) int64 {
	k := int64(1) << level
	return (int64(nx)*k + 1) * (int64(ny)*k + 1) * (int64(nz)*k + 1)
}

func TestExtractForestUniformBrick(t *testing.T) {
	conn := forest.BrickConnectivity(2, 1, 1)
	g := TrilinearGeometry{Conn: conn}
	for _, level := range []uint8{1, 2} {
		for _, p := range []int{1, 2, 4} {
			level, p := level, p
			sim.Run(p, func(r *sim.Rank) {
				f := forest.New(r, conn, level)
				m := Extract(f, g)
				st := m.GlobalStats()
				wantE := int64(2) << (3 * level)
				wantN := uniformBrickNodes(2, 1, 1, level)
				if st.Elements != wantE || st.Nodes != wantN || st.HangingLocal != 0 {
					t.Errorf("level %d ranks %d: got %d elements %d nodes %d hanging, want %d/%d/0",
						level, p, st.Elements, st.Nodes, st.HangingLocal, wantE, wantN)
				}
			})
		}
	}
}

func TestExtractForestCubedSphere(t *testing.T) {
	conn := forest.CubedSphere(2)
	g := NewShellGeometry(conn)
	level := uint8(1)
	// Surface nodes of a cube subdivided k x k per face: 6k^2+2, times
	// the number of radial layers.
	k := int64(2) << level
	wantN := (6*k*k + 2) * (int64(1)<<level + 1)
	for _, p := range []int{1, 2, 4} {
		p := p
		sim.Run(p, func(r *sim.Rank) {
			f := forest.New(r, conn, level)
			m := Extract(f, g)
			st := m.GlobalStats()
			if st.Elements != 24<<(3*level) || st.Nodes != wantN || st.HangingLocal != 0 {
				t.Errorf("ranks %d: got %d elements %d nodes %d hanging, want %d/%d/0",
					p, st.Elements, st.Nodes, st.HangingLocal, int64(24)<<(3*level), wantN)
			}
			// Every owned node must lie on a shell radius consistent with
			// its radial reference coordinate.
			for i, x := range m.OwnedX {
				rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
				want := 1 + float64(m.OwnedPos[i][2])/float64(1<<19)
				if math.Abs(rad-want) > 1e-12 {
					t.Fatalf("node %d: radius %v, want %v", i, rad, want)
				}
			}
		})
	}
}

// linearReproduction checks that constrained corner evaluation (hanging
// nodes included) reproduces f(x) = 1 + 2x + 3y - z exactly at every
// element corner of a mapped mesh whose geometry is affine per tree.
func linearReproduction(t *testing.T, m *Mesh) {
	t.Helper()
	f := func(x [3]float64) float64 { return 1 + 2*x[0] + 3*x[1] - x[2] }
	u := la.NewVec(m.Layout())
	for i, x := range m.OwnedX {
		u.Data[i] = f(x)
	}
	vals := m.GatherSlots(u.Data)[0]
	for ei := range m.Leaves {
		for c := 0; c < 8; c++ {
			got := m.Corner(ei, c).Value(vals)
			want := f(m.X[ei][c])
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("element %d corner %d: got %v want %v (hanging=%v)",
					ei, c, got, want, m.Corner(ei, c).Hanging())
			}
		}
	}
}

func TestExtractForestLinearReproduction(t *testing.T) {
	conn := forest.BrickConnectivity(2, 2, 1)
	g := TrilinearGeometry{Conn: conn}
	for _, p := range []int{1, 2, 4} {
		p := p
		sim.Run(p, func(r *sim.Rank) {
			f := forest.New(r, conn, 1)
			// Refine only tree 0, so hanging faces cross tree boundaries.
			f.Refine(func(o forest.Octant) bool { return o.Tree == 0 })
			f.Balance()
			f.Partition()
			m := Extract(f, g)
			st := m.GlobalStats()
			if st.HangingLocal == 0 {
				t.Fatalf("expected hanging corners across tree boundaries")
			}
			linearReproduction(t, m)
		})
	}
}

// TestExtractForestShellHanging runs the same constraint consistency
// check on a cubed-sphere shell with refinement confined to a few trees:
// linear functions are not in the mapped trilinear space globally, so
// here we check the weaker (but still gid-sensitive) property that
// corner evaluation of a nodal field is single-valued: two elements
// sharing a corner across a tree boundary see the same value.
func TestExtractForestShellHanging(t *testing.T) {
	conn := forest.CubedSphere(2)
	g := NewShellGeometry(conn)
	for _, p := range []int{1, 2} {
		p := p
		sim.Run(p, func(r *sim.Rank) {
			f := forest.New(r, conn, 1)
			f.Refine(func(o forest.Octant) bool { return o.Tree < 3 })
			f.Balance()
			f.Partition()
			m := Extract(f, g)
			if m.GlobalStats().HangingLocal == 0 {
				t.Fatalf("expected hanging corners")
			}
			// A nodal field defined as a function of the physical node
			// position must evaluate identically from every element that
			// shares the node (hanging corners interpolate masters, so
			// restrict the check to independent corners).
			u := la.NewVec(m.Layout())
			fn := func(x [3]float64) float64 { return x[0] + 0.5*x[1]*x[2] }
			for i, x := range m.OwnedX {
				u.Data[i] = fn(x)
			}
			vals := m.GatherSlots(u.Data)[0]
			for ei := range m.Leaves {
				for c := 0; c < 8; c++ {
					if m.Corner(ei, c).Hanging() {
						continue
					}
					got := m.Corner(ei, c).Value(vals)
					want := fn(m.X[ei][c])
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("element %d corner %d: got %v want %v", ei, c, got, want)
					}
				}
			}
		})
	}
}

// countingGeometry counts the NodeCoord calls of the geometry it wraps,
// per (tree, position) representation.
type countingGeometry struct {
	g     Geometry
	calls map[forest.NodePos]int
}

func (c *countingGeometry) NodeCoord(tree int32, p [3]uint32) [3]float64 {
	c.calls[forest.NodePos{Tree: tree, Pos: p}]++
	return c.g.NodeCoord(tree, p)
}

// TestExtractCoordsMatchGeometry holds the coordinates Extract computes
// once per distinct (tree, position) representation to the per-corner
// loop it replaced, bit for bit: every X[e][c] is g.NodeCoord of the
// element's tree and corner position, every OwnedX[i] g.NodeCoord(
// OwnedTree[i], OwnedPos[i]). The meshes are the uniform and the adapted
// shell (hanging corners, nodes on tree boundaries met in several tree
// frames) and a trilinear brick forest, at 1, 2 and 4 ranks; a counting
// geometry checks that the extraction calls NodeCoord exactly once per
// representation it meets.
func TestExtractCoordsMatchGeometry(t *testing.T) {
	shell := forest.CubedSphere(2)
	brick := forest.BrickConnectivity(2, 2, 1)
	for _, tc := range []struct {
		name      string
		conn      *forest.Connectivity
		geom      Geometry
		base, max uint8
	}{
		{"uniform-shell", shell, NewShellGeometry(shell), 2, 2},
		{"adapted-shell", shell, NewShellGeometry(shell), 1, 3},
		{"brick", brick, TrilinearGeometry{Conn: brick}, 1, 3},
	} {
		for _, p := range []int{1, 2, 4} {
			sim.Run(p, func(r *sim.Rank) {
				f := frontForest(r, tc.conn, tc.base, tc.max, tilted)
				f.Partition()
				cg := &countingGeometry{g: tc.geom, calls: map[forest.NodePos]int{}}
				m := Extract(f, cg)
				id := fmt.Sprintf("%s p=%d rank %d", tc.name, p, r.ID())
				same := func(a, b [3]float64) bool {
					for i := range a {
						if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
							return false
						}
					}
					return true
				}
				// Each check reports its first failure; the rank goes on to
				// the collective below either way.
				met := map[forest.NodePos]bool{}
				bad := false
				for ei, e := range m.Leaves {
					for c := 0; c < 8; c++ {
						rp := forest.NodePos{Tree: m.Trees[ei], Pos: cornerPos(e, c)}
						met[rp] = true
						if want := tc.geom.NodeCoord(rp.Tree, rp.Pos); !bad && !same(m.X[ei][c], want) {
							t.Errorf("%s: X[%d][%d] = %v, NodeCoord gives %v", id, ei, c, m.X[ei][c], want)
							bad = true
						}
					}
				}
				bad = false
				for i, x := range m.OwnedX {
					rp := forest.NodePos{Tree: m.OwnedTree[i], Pos: m.OwnedPos[i]}
					met[rp] = true
					if want := tc.geom.NodeCoord(rp.Tree, rp.Pos); !bad && !same(x, want) {
						t.Errorf("%s: OwnedX[%d] = %v, NodeCoord gives %v", id, i, x, want)
						bad = true
					}
				}
				bad = false
				for rp, n := range cg.calls {
					if !bad && (n != 1 || !met[rp]) {
						t.Errorf("%s: %d NodeCoord calls at %v, which the mesh meets: %v", id, n, rp, met[rp])
						bad = true
					}
				}
				if len(cg.calls) != len(met) {
					t.Errorf("%s: %d representations met, %d computed", id, len(met), len(cg.calls))
				}
				hanging := r.AllreduceInt64(int64(len(m.Hang)))
				if r.ID() == 0 {
					t.Logf("%s: %d corners, %d representations, %d hanging corners", id, 8*len(m.Leaves), len(met), hanging)
				}
				if tc.base != tc.max && hanging == 0 {
					t.Errorf("%s: no hanging corners, the adapted case checks nothing of them", id)
				}
			})
		}
	}
}

// TestExtractBytesPerLeaf pins what one extraction allocates per global
// leaf at two ranks, on box-amr's level front and on the uniform level-3
// shell that shell-solve extracts: the mesh it returns (leaves, rows,
// hanging table, owned-node tables and, on the shell, 192 bytes of
// corner coordinates per leaf) and the scratch that dies with the call
// (node records, node table, sort keys, ghost layer). The bounds are the
// figures measured when coordinates came to be computed once per
// representation, the node records shrank to 32 bytes and the scratch
// was sized from counts, 327 and 531 B/leaf, plus 10%. Before, with a
// 56-byte record per node, a table of at least 4 slots per leaf and
// slices grown by append, they were 645 and 648 B/leaf.
func TestExtractBytesPerLeaf(t *testing.T) {
	shell := forest.CubedSphere(2)
	for _, tc := range []struct {
		name      string
		conn      *forest.Connectivity
		geom      Geometry
		base, max uint8
		plane     [4]int64
		bound     float64 // bytes per leaf
	}{
		{"box-amr", unitBox, nil, 3, 6, level, 1.1 * 327},
		{"shell-uniform3", shell, NewShellGeometry(shell), 3, 3, tilted, 1.1 * 531},
	} {
		perLeaf := math.Inf(1)
		sim.Run(2, func(r *sim.Rank) {
			f := frontForest(r, tc.conn, tc.base, tc.max, tc.plane)
			f.Partition()
			n := f.NumGlobal()
			var before, after runtime.MemStats
			for rep := 0; rep < 3; rep++ {
				r.Barrier()
				if r.ID() == 0 {
					runtime.ReadMemStats(&before)
				}
				r.Barrier()
				Extract(f, tc.geom)
				r.Barrier()
				if r.ID() == 0 {
					runtime.ReadMemStats(&after)
					perLeaf = math.Min(perLeaf, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
				}
			}
		})
		t.Logf("%s: %.0f B/leaf allocated by one extraction at 2 ranks (bound %.0f)", tc.name, perLeaf, tc.bound)
		if perLeaf > tc.bound {
			t.Errorf("%s: one extraction allocates %.0f B/leaf, want <= %.0f", tc.name, perLeaf, tc.bound)
		}
	}
}
