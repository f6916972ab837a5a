package mesh

// The mesh's ghost plan is derived, without communication, from the
// handshake that numbers the nodes. The oracle is the plan
// la.NewGhostExchange negotiates for the same ghost set: the two must
// agree table for table and move the same bits.

import (
	"fmt"
	"reflect"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/sim"
)

// planTables renders the index tables of a plan — ghost order, owners,
// per-owner request slots, servers, per-server send indices. They are
// la's private fields, read through reflection: this is a white-box
// comparison of two values of one type.
func planTables(g *la.GhostExchange) string {
	v := reflect.ValueOf(g).Elem()
	var s string
	for _, f := range []string{"ghosts", "owners", "reqSlot", "servers", "sendIdx"} {
		s += fmt.Sprintf("%s=%v ", f, v.FieldByName(f))
	}
	return s
}

var planCases = []struct {
	name   string
	conn   *forest.Connectivity
	geom   func(*forest.Connectivity) Geometry
	base   uint8
	passes int
	q2     bool // also hold the Q2 node layer's plan to a negotiated one
}{
	{"box", forest.BrickConnectivity(1, 1, 1), func(*forest.Connectivity) Geometry { return nil }, 2, 3, false},
	{"brick2", forest.BrickConnectivity(2, 1, 1), func(c *forest.Connectivity) Geometry { return TrilinearGeometry{Conn: c} }, 1, 3, false},
	{"shell", forest.CubedSphere(2), func(c *forest.Connectivity) Geometry { return NewShellGeometry(c) }, 1, 2, false},
	// Fewer elements than ranks, as on agglomerated multigrid levels:
	// some ranks hold nothing, own nothing and reference nothing.
	{"box-1elem", forest.BrickConnectivity(1, 1, 1), func(*forest.Connectivity) Geometry { return nil }, 0, 0, true},
	{"brick2-2elem", forest.BrickConnectivity(2, 1, 1), func(c *forest.Connectivity) Geometry { return TrilinearGeometry{Conn: c} }, 0, 0, false},
	// The Taylor-Hood layer numbers its nodes with the same handshake.
	{"box-q2", forest.BrickConnectivity(1, 1, 1), func(*forest.Connectivity) Geometry { return nil }, 2, 0, true},
}

func TestMeshPlanMatchesNegotiated(t *testing.T) {
	for _, tc := range planCases {
		for _, p := range []int{1, 2, 3, 5} {
			noGhosts := make([]bool, p)
			sim.Run(p, func(r *sim.Rank) {
				f := forest.New(r, tc.conn, tc.base)
				for pass := 0; pass < tc.passes; pass++ {
					pass := pass
					f.Refine(func(o forest.Octant) bool { return digestMark(o, pass) })
				}
				f.Balance()
				f.Partition()
				m := Extract(f, tc.geom(tc.conn))
				id := fmt.Sprintf("%s p=%d rank %d", tc.name, p, r.ID())

				// The oracle: negotiate a plan for the off-rank masters
				// of the corner table, duplicates and all.
				var want []int64
				for ei := range m.Corners {
					for c := 0; c < 8; c++ {
						co := &m.Corners[ei][c]
						for k := 0; k < int(co.N); k++ {
							if s := co.Slot[k]; int(s) >= m.NumOwned {
								want = append(want, m.GID(s))
							} else if s < 0 {
								t.Errorf("%s: negative slot", id)
							}
						}
					}
				}
				noGhosts[r.ID()] = m.GX.NumGhosts() == 0
				checkPlan(t, id, m.GX, m.Layout(), want)
				if !tc.q2 {
					return
				}
				q2 := ExtractQ2(f, m)
				want = want[:0]
				for ei := range q2.Nodes {
					for _, s := range q2.Nodes[ei] {
						if int(s) >= q2.NumOwned {
							want = append(want, q2.GX.Ghosts()[int(s)-q2.NumOwned])
						}
					}
				}
				checkPlan(t, id+" Q2", q2.GX, q2.Layout(), want)
			})
			if p == 1 && !noGhosts[0] {
				t.Errorf("%s: one rank has ghosts", tc.name)
			}
		}
	}
}

// checkPlan holds a derived plan to the one la.NewGhostExchange
// negotiates for the off-rank indices want (duplicates and all): the same
// tables, and the same bits through either plan at widths 1 and 3 and
// several fields at once (collective).
func checkPlan(t *testing.T, id string, gx *la.GhostExchange, layout *la.Layout, want []int64) {
	neg := la.NewGhostExchange(layout, want, 1)
	if got, exp := planTables(gx), planTables(neg); got != exp {
		t.Errorf("%s: derived plan differs from the negotiated one\n derived    %s\n negotiated %s", id, got, exp)
	}

	// The same bits through either plan, at widths 1 and 3
	// and several fields at once.
	n, ng := layout.Local(), gx.NumGhosts()
	field := func(w, salt int) []float64 {
		v := make([]float64, w*n)
		for i := range v {
			v[i] = 1/float64(3+salt) + float64(layout.Start())*float64(w) + float64(i)*1.0000001
		}
		return v
	}
	same := func(what string, a, b []float64) {
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: %s differs at %d: %v vs %v", id, what, i, a[i], b[i])
				return
			}
		}
	}
	x := field(1, 0)
	ga, gb := make([]float64, ng), make([]float64, ng)
	gx.Gather(x, ga)
	neg.Gather(x, gb)
	same("Gather", ga, gb)
	for s := range ga {
		if o := layout.OwnerOf(gx.Ghosts()[s]); ga[s] == 0 || o == layout.Rank().ID() {
			t.Errorf("%s: ghost %d not filled from another rank", id, s)
		}
	}

	owned := [][]float64{field(1, 1), field(1, 2), field(1, 3)}
	ma := [][]float64{make([]float64, ng), make([]float64, ng), make([]float64, ng)}
	mb := [][]float64{make([]float64, ng), make([]float64, ng), make([]float64, ng)}
	gx.GatherMulti(owned, ma)
	neg.GatherMulti(owned, mb)
	for f := range ma {
		same("GatherMulti", ma[f], mb[f])
	}

	contrib := make([]float64, 3*ng)
	for i := range contrib {
		contrib[i] = float64(layout.Rank().ID()+1) + float64(i)/7
	}
	sa, sb := field(3, 4), field(3, 4)
	gx.ScatterAddBlock(3, contrib, sa)
	neg.ScatterAddBlock(3, contrib, sb)
	same("ScatterAddBlock(3)", sa, sb)
}
