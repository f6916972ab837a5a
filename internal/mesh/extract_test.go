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
	"math"
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
			got := m.Corners[ei][c].Value(vals)
			want := f(m.X[ei][c])
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("element %d corner %d: got %v want %v (hanging=%v)",
					ei, c, got, want, m.Corners[ei][c].Hanging())
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
					if m.Corners[ei][c].Hanging() {
						continue
					}
					got := m.Corners[ei][c].Value(vals)
					want := fn(m.X[ei][c])
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("element %d corner %d: got %v want %v", ei, c, got, want)
					}
				}
			}
		})
	}
}
