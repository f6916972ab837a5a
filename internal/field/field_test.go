package field

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

var unitBox = forest.BrickConnectivity(1, 1, 1)

// linAt is the linear function every projection step must preserve
// exactly, at position p in tree's frame. Tree t of a brick nx x 1 x 1
// sits t root lengths along x, so it is one linear function across the
// brick.
func linAt(tree int32, p [3]float64) float64 {
	return 1 + 2*(p[0]+float64(tree)*morton.RootLen) - 0.5*p[1] + 0.25*p[2]
}

// linearField returns linAt as a nodal field on m.
func linearField(m *mesh.Mesh) *la.Vec {
	v := la.NewVec(m.Layout())
	for i, pos := range m.OwnedPos {
		v.Data[i] = linAt(m.OwnedTree[i], [3]float64{float64(pos[0]), float64(pos[1]), float64(pos[2])})
	}
	return v
}

// checkLinear requires the nodal field v on m to hold linAt at every
// owned node.
func checkLinear(t *testing.T, m *mesh.Mesh, v *la.Vec, tag string) {
	t.Helper()
	for i, pos := range m.OwnedPos {
		want := linAt(m.OwnedTree[i], [3]float64{float64(pos[0]), float64(pos[1]), float64(pos[2])})
		if math.Abs(v.Data[i]-want) > 1e-6*math.Abs(want) {
			t.Fatalf("%s: node %v of tree %d: %v want %v", tag, pos, m.OwnedTree[i], v.Data[i], want)
		}
	}
}

// carry runs the field pass after tr, whose leaves m was extracted from,
// has been adapted locally: Partition, Project from m onto the adapted
// leaves, Transfer, Extract and ToNodal (collective). It returns the new
// mesh and the fields on it.
func carry(r *sim.Rank, m *mesh.Mesh, tr *forest.Forest, fields []*la.Vec) (*mesh.Mesh, []*la.Vec) {
	adapted := tr.Leaves()
	rt := tr.Partition()
	routed := Project(m, fields, adapted, rt)
	routed.Transfer(r)
	m2 := mesh.Extract(tr, nil)
	return m2, routed.ToNodal(m2)
}

func TestProjectRefine(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 1)
		m := mesh.Extract(tr, nil)
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 })
		m2, out := carry(r, m, tr, []*la.Vec{linearField(m)})
		checkLinear(t, m2, out[0], "refine")
	})
}

func TestProjectCoarsen(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		tr.Coarsen(func(forest.Octant) bool { return true })
		m2, out := carry(r, m, tr, []*la.Vec{linearField(m)})
		checkLinear(t, m2, out[0], "coarsen")
	})
}

func TestProjectMixedWithBalance(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		// Coarsen one region, refine another deeply, then balance.
		marks := make([]bool, tr.NumLocal())
		for i, o := range tr.Leaves() {
			marks[i] = o.O.X >= morton.RootLen/2
		}
		tr.CoarsenMarked(marks)
		for pass := 0; pass < 2; pass++ {
			tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
		}
		tr.Balance()
		m2, out := carry(r, m, tr, []*la.Vec{linearField(m)})
		checkLinear(t, m2, out[0], "mixed")
	})
}

// TestTransferFollowsPartition refines half the box at 4 ranks, so the
// partition moves leaves between neighbouring ranks, and requires every
// node to read the linear field: from the range its rank kept or from a
// range that arrived.
func TestTransferFollowsPartition(t *testing.T) {
	sim.Run(4, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 })
		m2, out := carry(r, m, tr, []*la.Vec{linearField(m)})
		checkLinear(t, m2, out[0], "transfer")
	})
}

// TestNodalRoundTrip requires ToNodal(FromNodal(v)) to return a
// non-linear v bit for bit on a box refined along a tilted front and on
// an adapted cubed-sphere shell (both with hanging corners) at 1, 2 and 4
// ranks: every owned node reads one of its own corners, never an average
// over the elements and ranks sharing it.
func TestNodalRoundTrip(t *testing.T) {
	frontBox := func(r *sim.Rank) *mesh.Mesh {
		tr := forest.New(r, unitBox, 2)
		for pass := 0; pass < 2; pass++ {
			tr.Refine(func(o forest.Octant) bool {
				lo := float64(o.O.X) + 0.3*float64(o.O.Y) + 0.2*float64(o.O.Z)
				c := 0.6 * float64(morton.RootLen)
				return lo <= c && c <= lo+2*float64(o.O.Len())
			})
		}
		tr.Balance()
		tr.Partition()
		return mesh.Extract(tr, nil)
	}
	shell := func(r *sim.Rank) *mesh.Mesh {
		conn := forest.CubedSphere(2)
		tr := forest.New(r, conn, 1)
		tr.Refine(func(o forest.Octant) bool { return o.Tree < 3 })
		tr.Refine(func(o forest.Octant) bool { return o.Tree == 1 && o.O.Level == 2 && o.O.X == 0 })
		tr.Balance()
		tr.Partition()
		return mesh.Extract(tr, mesh.NewShellGeometry(conn))
	}
	for _, tc := range []struct {
		name  string
		build func(*sim.Rank) *mesh.Mesh
	}{{"front box", frontBox}, {"shell", shell}} {
		for _, p := range []int{1, 2, 4} {
			sim.Run(p, func(r *sim.Rank) {
				m := tc.build(r)
				if m.GlobalStats().HangingLocal == 0 {
					t.Errorf("%s at %d ranks: no hanging corners", tc.name, p)
				}
				fields := make([]*la.Vec, 2)
				for f := range fields {
					fields[f] = la.NewVec(m.Layout())
					for i := range fields[f].Data {
						x := fem.NodeCoord(m, fem.UnitDomain, i)
						fields[f].Data[i] = math.Sin(float64(f+1)*x[0]+3*x[1]) * math.Exp(x[2]*x[0])
					}
				}
				back := ToNodal(m, FromNodal(m, fields))
				for f := range fields {
					for i, v := range fields[f].Data {
						if math.Float64bits(back[f].Data[i]) != math.Float64bits(v) {
							t.Errorf("%s at %d ranks, rank %d field %d node %d: %v back, %v sent", tc.name, p, r.ID(), f, i, back[f].Data[i], v)
							return
						}
					}
				}
			})
		}
	}
}

// Full adaptation pipeline: nodal -> adapt -> balance -> partition ->
// project -> transfer -> nodal on the new mesh, preserving a linear field
// exactly.
func TestFullPipelinePreservesLinear(t *testing.T) {
	sim.Run(4, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		T := linearField(m)

		// Adapt: refine a moving-front region, coarsen the rest.
		co := make([]bool, tr.NumLocal())
		for i, o := range tr.Leaves() {
			co[i] = o.O.X >= morton.RootLen/2
		}
		tr.CoarsenMarked(co)
		ref := make([]bool, tr.NumLocal())
		for i, o := range tr.Leaves() {
			ref[i] = o.O.X < morton.RootLen/4
		}
		tr.RefineMarked(ref)
		tr.Balance()
		m2, out := carry(r, m, tr, []*la.Vec{T})
		checkLinear(t, m2, out[0], "pipeline")
	})
}

// Fields that cross an adaptation together must come out bit for bit as
// each would alone: the restart and chaos pins compare T and U that
// travelled in different company.
func TestFieldsTogetherMatchAlone(t *testing.T) {
	sim.Run(3, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		tr.Refine(func(o forest.Octant) bool { return o.O.Y == 0 })
		tr.Balance()
		tr.Partition()
		m := mesh.Extract(tr, nil)
		fields := smoothFields(m, 3)
		tr.Coarsen(func(p forest.Octant) bool { return p.O.X >= morton.RootLen/2 })
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 })
		tr.Balance()
		adapted := tr.Leaves()
		rt := tr.Partition()
		m2 := mesh.Extract(tr, nil)
		pipeline := func(fs []*la.Vec) []*la.Vec {
			routed := Project(m, fs, adapted, rt)
			routed.Transfer(r)
			return routed.ToNodal(m2)
		}
		together := pipeline(fields)
		for f := range fields {
			alone := pipeline(fields[f : f+1])[0]
			for i := range alone.Data {
				if together[f].Data[i] != alone.Data[i] {
					t.Errorf("field %d node %d: %v together, %v alone", f, i, together[f].Data[i], alone.Data[i])
					return
				}
			}
		}
	})
}

// smoothFields returns n distinct non-linear nodal fields on m.
func smoothFields(m *mesh.Mesh, n int) []*la.Vec {
	fields := make([]*la.Vec, n)
	for f := range fields {
		fields[f] = la.NewVec(m.Layout())
		for i := range fields[f].Data {
			x := fem.NodeCoord(m, fem.UnitDomain, i)
			fields[f].Data[i] = math.Sin(float64(f+1)*x[0]+x[1]) * math.Exp(x[2])
		}
	}
	return fields
}

// TestProjectMatchesOldPipeline holds Project, Transfer and ToNodal to
// the three copies they replaced (FromNodal, ProjectData and the
// concatenating Transfer, kept in ref_test.go, then ToNodal) bit for bit:
// five non-linear fields across random coarsening, refinement and balance
// with hanging corners, then a partition that moves leaves, on the unit
// box, a 3x1x1 brick and the cubed-sphere shell at 1 to 4 ranks.
func TestProjectMatchesOldPipeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		conn *forest.Connectivity
		geom func(*forest.Connectivity) mesh.Geometry
	}{
		{"unit box", unitBox, func(*forest.Connectivity) mesh.Geometry { return nil }},
		{"3x1x1 brick", forest.BrickConnectivity(3, 1, 1), func(*forest.Connectivity) mesh.Geometry { return nil }},
		{"shell", forest.CubedSphere(2), func(c *forest.Connectivity) mesh.Geometry { return mesh.NewShellGeometry(c) }},
	} {
		for p := 1; p <= 4; p++ {
			moved := make([]int, p)
			sim.Run(p, func(r *sim.Rank) {
				rng := rand.New(rand.NewSource(int64(7*p + r.ID())))
				tr := forest.New(r, tc.conn, 1)
				tr.Refine(func(forest.Octant) bool { return rng.Intn(2) == 0 })
				tr.Refine(func(forest.Octant) bool { return rng.Intn(3) == 0 })
				tr.Balance()
				tr.Partition()
				m := mesh.Extract(tr, tc.geom(tc.conn))
				fields := smoothFields(m, 5)
				old := append([]forest.Octant(nil), tr.Leaves()...)
				data := FromNodal(m, fields)
				tr.Coarsen(func(forest.Octant) bool { return rng.Intn(2) == 0 })
				tr.Refine(func(o forest.Octant) bool { return o.O.Level < 4 && rng.Intn(4) == 0 })
				tr.Balance()
				adapted := tr.Leaves()
				data = projectDataRef(old, adapted, data)
				rt := tr.Partition()
				routed := Project(m, fields, adapted, rt)
				routed.Transfer(r)
				data = transferRef(r, rt, data)
				m2 := mesh.Extract(tr, tc.geom(tc.conn))
				got, want := routed.ToNodal(m2), ToNodal(m2, data)
				for k, from := range rt.RecvFrom {
					if from != r.ID() {
						moved[r.ID()] += rt.RecvCnt[k]
					}
				}
				for f := range want {
					for i, v := range want[f].Data {
						if math.Float64bits(got[f].Data[i]) != math.Float64bits(v) {
							t.Errorf("%s at %d ranks, rank %d field %d node %d: %v, want %v", tc.name, p, r.ID(), f, i, got[f].Data[i], v)
							return
						}
					}
				}
			})
			if p > 1 && !slices.ContainsFunc(moved, func(n int) bool { return n > 0 }) {
				t.Errorf("%s at %d ranks: the partition moved no leaf", tc.name, p)
			}
		}
	}
}

// TestToNodalReadsCanonicalCell gives every element corner its own value,
// so the corners at a node disagree, and requires each owned node to read
// the corner of the element holding its canonical cell (Mesh.OwnedCell),
// found by search and by slot, on adapted meshes with hanging corners at
// 1 to 4 ranks.
func TestToNodalReadsCanonicalCell(t *testing.T) {
	for _, tc := range []struct {
		name string
		conn *forest.Connectivity
		geom func(*forest.Connectivity) mesh.Geometry
	}{
		{"3x1x1 brick", forest.BrickConnectivity(3, 1, 1), func(*forest.Connectivity) mesh.Geometry { return nil }},
		{"shell", forest.CubedSphere(2), func(c *forest.Connectivity) mesh.Geometry { return mesh.NewShellGeometry(c) }},
	} {
		for p := 1; p <= 4; p++ {
			sim.Run(p, func(r *sim.Rank) {
				rng := rand.New(rand.NewSource(int64(11*p + r.ID())))
				tr := forest.New(r, tc.conn, 1)
				tr.Refine(func(forest.Octant) bool { return rng.Intn(2) == 0 })
				tr.Refine(func(forest.Octant) bool { return rng.Intn(3) == 0 })
				tr.Balance()
				tr.Partition()
				m := mesh.Extract(tr, tc.geom(tc.conn))
				data := FromNodal(m, smoothFields(m, 2))
				for f := range data {
					for ei := range data[f] {
						for c := range data[f][ei] {
							data[f][ei][c] += 0.01 * float64((8*ei+c)%7)
						}
					}
				}
				got := ToNodal(m, data)
				for i, cell := range m.OwnedCell {
					ei := m.FindLocalElement(cell.Tree, cell.O)
					c := slices.Index(m.Rows[ei][:], int32(i))
					for f := range data {
						if want := data[f][ei][c]; math.Float64bits(got[f].Data[i]) != math.Float64bits(want) {
							t.Errorf("%s at %d ranks, rank %d field %d node %d: %v, want %v (element %d corner %d)", tc.name, p, r.ID(), f, i, got[f].Data[i], want, ei, c)
							return
						}
					}
				}
			})
		}
	}
}
