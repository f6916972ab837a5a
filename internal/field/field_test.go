package field

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

var unitBox = forest.BrickConnectivity(1, 1, 1)

// linear fills element data with a linear function of position, which
// every projection step must preserve exactly.
func linearData(leaves []forest.Octant) ElemData {
	out := make(ElemData, len(leaves))
	for ei, fo := range leaves {
		o := fo.O
		h := o.Len()
		for c := 0; c < 8; c++ {
			p := [3]float64{float64(o.X), float64(o.Y), float64(o.Z)}
			if c&1 != 0 {
				p[0] += float64(h)
			}
			if c&2 != 0 {
				p[1] += float64(h)
			}
			if c&4 != 0 {
				p[2] += float64(h)
			}
			out[ei][c] = lin(p)
		}
	}
	return out
}

func lin(p [3]float64) float64 { return 1 + 2*p[0] - 0.5*p[1] + 0.25*p[2] }

func checkLinear(t *testing.T, leaves []forest.Octant, data ElemData, tag string) {
	t.Helper()
	for ei, fo := range leaves {
		o := fo.O
		h := o.Len()
		for c := 0; c < 8; c++ {
			p := [3]float64{float64(o.X), float64(o.Y), float64(o.Z)}
			if c&1 != 0 {
				p[0] += float64(h)
			}
			if c&2 != 0 {
				p[1] += float64(h)
			}
			if c&4 != 0 {
				p[2] += float64(h)
			}
			want := lin(p)
			if math.Abs(data[ei][c]-want) > 1e-6*math.Abs(want) {
				t.Fatalf("%s: elem %d corner %d: %v want %v", tag, ei, c, data[ei][c], want)
			}
		}
	}
}

func TestProjectRefine(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 1)
		old := append([]forest.Octant(nil), tr.Leaves()...)
		data := linearData(old)
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 })
		nd := ProjectData(old, tr.Leaves(), []ElemData{data})[0]
		checkLinear(t, tr.Leaves(), nd, "refine")
	})
}

func TestProjectCoarsen(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		old := append([]forest.Octant(nil), tr.Leaves()...)
		data := linearData(old)
		tr.Coarsen(func(forest.Octant) bool { return true })
		nd := ProjectData(old, tr.Leaves(), []ElemData{data})[0]
		checkLinear(t, tr.Leaves(), nd, "coarsen")
	})
}

func TestProjectMixedWithBalance(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		old := append([]forest.Octant(nil), tr.Leaves()...)
		data := linearData(old)
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
		nd := ProjectData(old, tr.Leaves(), []ElemData{data})[0]
		checkLinear(t, tr.Leaves(), nd, "mixed")
	})
}

func TestTransferFollowsPartition(t *testing.T) {
	sim.Run(4, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 })
		data := linearData(tr.Leaves())
		rt := tr.Partition()
		nd := Transfer(r, rt, []ElemData{data})[0]
		if len(nd) != tr.NumLocal() {
			t.Errorf("transferred %d records for %d leaves", len(nd), tr.NumLocal())
			return
		}
		checkLinear(t, tr.Leaves(), nd, "transfer")
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

// Full adaptation pipeline: nodal -> element -> adapt -> balance ->
// partition -> nodal on the new mesh, preserving a linear field exactly.
func TestFullPipelinePreservesLinear(t *testing.T) {
	sim.Run(4, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		T := la.NewVec(m.Layout())
		for i, pos := range m.OwnedPos {
			T.Data[i] = lin([3]float64{float64(pos[0]), float64(pos[1]), float64(pos[2])})
		}
		data := FromNodal(m, []*la.Vec{T})
		old := append([]forest.Octant(nil), tr.Leaves()...)

		// Adapt: refine a moving-front region, coarsen the rest.
		ref := make([]bool, tr.NumLocal())
		co := make([]bool, tr.NumLocal())
		for i, o := range tr.Leaves() {
			if o.O.X < morton.RootLen/4 {
				ref[i] = true
			} else if o.O.X >= morton.RootLen/2 {
				co[i] = true
			}
		}
		tr.CoarsenMarked(co)
		// Marks were built for the pre-coarsen leaf layout; rebuild for refine.
		ref2 := make([]bool, tr.NumLocal())
		for i, o := range tr.Leaves() {
			ref2[i] = o.O.X < morton.RootLen/4
		}
		tr.RefineMarked(ref2)
		tr.Balance()
		data = ProjectData(old, tr.Leaves(), data)
		rt := tr.Partition()
		data = Transfer(r, rt, data)
		m2 := mesh.Extract(tr, nil)
		T2 := ToNodal(m2, data)[0]
		for i, pos := range m2.OwnedPos {
			want := lin([3]float64{float64(pos[0]), float64(pos[1]), float64(pos[2])})
			if math.Abs(T2.Data[i]-want) > 1e-6*math.Abs(want) {
				t.Errorf("pipeline: node %v = %v want %v", pos, T2.Data[i], want)
				return
			}
		}
	})
}

// Fields that cross an adaptation together must come out bit for bit as
// each would alone: the restart and chaos pins compare T, U and P that
// travelled in different company.
func TestFieldsTogetherMatchAlone(t *testing.T) {
	sim.Run(3, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		tr.Refine(func(o forest.Octant) bool { return o.O.Y == 0 })
		tr.Balance()
		tr.Partition()
		m := mesh.Extract(tr, nil)
		fields := make([]*la.Vec, 3)
		for f := range fields {
			fields[f] = la.NewVec(m.Layout())
			for i, pos := range m.OwnedPos {
				x := fem.UnitDomain.Coord(pos)
				fields[f].Data[i] = math.Sin(float64(f+1)*x[0]+x[1]) * math.Exp(x[2])
			}
		}
		old := append([]forest.Octant(nil), tr.Leaves()...)
		tr.Coarsen(func(p forest.Octant) bool { return p.O.X >= morton.RootLen/2 })
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 })
		tr.Balance()
		adapted := append([]forest.Octant(nil), tr.Leaves()...)
		rt := tr.Partition()
		m2 := mesh.Extract(tr, nil)
		pipeline := func(fs []*la.Vec) []*la.Vec {
			data := FromNodal(m, fs)
			data = ProjectData(old, adapted, data)
			data = Transfer(r, rt, data)
			return ToNodal(m2, data)
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
