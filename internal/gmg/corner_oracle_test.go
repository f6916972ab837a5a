package gmg

import (
	"fmt"
	"math"
	"testing"

	"rhea/internal/advect"
	"rhea/internal/errind"
	"rhea/internal/fem"
	"rhea/internal/field"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/matfree"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// The element loops read a corner from the mesh's compact table: an
// independent corner's slot straight from Mesh.Rows (weight exactly 1, no
// multiply), a hanging corner's masters from Mesh.Hang. The oracles below
// are the loops they replaced, which read every corner as {N, Slot, W}
// and summed from zero — run here over m.Corner, the expanded view.
// TestCornerRowsMatchOracles holds every production path to its oracle
// with math.Float64bits.

// oracleCorners expands element ei's eight corners.
func oracleCorners(m *mesh.Mesh, ei int) (cs [8]mesh.Corner) {
	for c := range cs {
		cs[c] = m.Corner(ei, c)
	}
	return cs
}

// oracleStokesApply is matfree.Operator.Apply with no rotated frames,
// every element accumulated in order into one slot-space buffer: slot-space gather, the per-corner weighted gather and
// scatter around each element kernel, the ghost scatter-add and identity
// rows at fixed dofs.
func oracleStokesApply(m *mesh.Mesh, dom fem.Domain, eta []float64, fixed []bool, x, y *la.Vec) {
	n, ns := m.NumOwned, m.NSlots()
	src := make([]float64, 4*ns)
	copy(src, x.Data)
	m.GX.GatherBlock(4, x.Data, src[4*n:])
	for i, f := range fixed {
		if f {
			src[i] = 0
		}
	}
	dst := make([]float64, 4*ns)
	geos := fem.ElemGeomOf(m, dom)
	var xe, ye [32]float64
	for ei := range m.Leaves {
		cs := oracleCorners(m, ei)
		for a := 0; a < 8; a++ {
			cr := &cs[a]
			var v0, v1, v2, v3 float64
			for k := 0; k < int(cr.N); k++ {
				base := int(cr.Slot[k]) * 4
				w := cr.W[k]
				v0 += w * src[base]
				v1 += w * src[base+1]
				v2 += w * src[base+2]
				v3 += w * src[base+3]
			}
			xe[4*a], xe[4*a+1], xe[4*a+2], xe[4*a+3] = v0, v1, v2, v3
		}
		geos[ei].StokesApply(eta[ei], &xe, &ye)
		for a := 0; a < 8; a++ {
			cr := &cs[a]
			for k := 0; k < int(cr.N); k++ {
				base := int(cr.Slot[k]) * 4
				w := cr.W[k]
				dst[base] += w * ye[4*a]
				dst[base+1] += w * ye[4*a+1]
				dst[base+2] += w * ye[4*a+2]
				dst[base+3] += w * ye[4*a+3]
			}
		}
	}
	copy(y.Data, dst[:4*n])
	m.GX.ScatterAddBlock(4, dst[4*n:], y.Data)
	for i := 0; i < 4*n; i++ {
		if fixed[i] {
			y.Data[i] = x.Data[i]
		}
	}
}

// oracleLevelApply is levelOp.apply with the per-corner weighted element
// loop over the full 8x8 kernel: for each of o.w interleaved fields the
// eight corners gathered from zero, K's rows summed in corner order,
// scaled by eta, scattered through the weights.
func oracleLevelApply(o *levelOp, x, y []float64) {
	lv, w := o.lv, o.w
	m := lv.mesh
	n := w * m.NumOwned
	src := make([]float64, w*m.NSlots())
	copy(src, x)
	m.GX.GatherBlock(w, x, src[n:])
	for _, e := range o.fixed {
		src[e] = 0
	}
	acc := make([]float64, len(src))
	for ei := range m.Leaves {
		cs := oracleCorners(m, ei)
		K, eta := lv.kern[lv.kidx[ei]].Full(), lv.eta[ei]
		var xe [8][3]float64
		for a := 0; a < 8; a++ {
			cr := &cs[a]
			for k := 0; k < int(cr.N); k++ {
				for f := 0; f < w; f++ {
					xe[a][f] += cr.W[k] * src[w*int(cr.Slot[k])+f]
				}
			}
		}
		for a := 0; a < 8; a++ {
			var s [3]float64
			for b := 0; b < 8; b++ {
				for f := 0; f < w; f++ {
					s[f] += K[a][b] * xe[b][f]
				}
			}
			cr := &cs[a]
			for f := 0; f < w; f++ {
				s[f] *= eta
				for k := 0; k < int(cr.N); k++ {
					acc[w*int(cr.Slot[k])+f] += cr.W[k] * s[f]
				}
			}
		}
	}
	copy(y, acc[:n])
	m.GX.ScatterAddBlock(w, acc[n:], y)
	for _, e := range o.ownFixed {
		y[e] = x[e]
	}
}

// oracleRate is advect.RateOfChange with no source, built from scratch
// the way advect.New and RateOfChange do it: the lumped mass and the rate
// each gathered and scattered through the corner weights, the SUPG
// parameter derived per element, and the production kernel for the
// element's geometry (dense on mapped elements, separable on bricks).
func oracleRate(m *mesh.Mesh, dom fem.Domain, kappa float64, vel [][8][3]float64, bc fem.ScalarBC, T *la.Vec) *la.Vec {
	n := m.NumOwned
	geos := fem.ElemGeoms(m)
	acc := make([]float64, m.NSlots())
	scatter := func(ei int, R *[8]float64) {
		cs := oracleCorners(m, ei)
		for a := 0; a < 8; a++ {
			cr := &cs[a]
			for k := 0; k < int(cr.N); k++ {
				acc[cr.Slot[k]] += cr.W[k] * R[a]
			}
		}
	}
	reduce := func() *la.Vec {
		out := la.NewVec(m.Layout())
		copy(out.Data, acc[:n])
		m.GX.ScatterAdd(acc[n:], out.Data)
		for i := range acc {
			acc[i] = 0
		}
		return out
	}
	for ei := range m.Leaves {
		var lm [8]float64
		if geos != nil {
			lm = fem.LumpedMassGeom(&geos[ei], 1)
		} else {
			g := fem.NewBrickGeom(dom.ElemSize(m.Leaves[ei]))
			lm = g.LumpedMass()
		}
		scatter(ei, &lm)
	}
	lump := reduce()
	lumpInv := la.NewVec(m.Layout())
	for i := range lumpInv.Data {
		if _, is := bc(fem.NodeCoord(m, dom, i)); !is && lump.Data[i] > 0 {
			lumpInv.Data[i] = 1 / lump.Data[i]
		}
	}
	tbuf := m.GatherSlots(T.Data)[0]
	for ei := range m.Leaves {
		cs := oracleCorners(m, ei)
		var Tc, R [8]float64
		for c := 0; c < 8; c++ {
			cr := &cs[c]
			for k := 0; k < int(cr.N); k++ {
				Tc[c] += cr.W[k] * tbuf[cr.Slot[k]]
			}
		}
		u := &vel[ei]
		var u2max float64
		var ubar [3]float64
		for c := 0; c < 8; c++ {
			if n2 := u[c][0]*u[c][0] + u[c][1]*u[c][1] + u[c][2]*u[c][2]; n2 > u2max {
				u2max = n2
			}
			for d := 0; d < 3; d++ {
				ubar[d] += u[c][d] / 8
			}
		}
		if geos != nil {
			tau := fem.SUPGTauAniso(geos[ei].H, ubar, math.Sqrt(u2max), kappa)
			var qs [8]fem.QGeom
			geos[ei].Grads(&qs)
			fem.TransportRate(&qs, kappa, tau, u, &Tc, &R)
		} else {
			h := dom.ElemSize(m.Leaves[ei])
			tau := fem.SUPGTauAniso(h, ubar, math.Sqrt(u2max), kappa)
			g := fem.NewBrickGeom(h)
			g.TransportRate(kappa, tau, u, &Tc, &R)
		}
		scatter(ei, &R)
	}
	rate := reduce()
	rate.PointwiseMult(rate, lumpInv)
	return rate
}

// oracleFromNodal samples every field at every element corner, as
// field.Project reads the old corners: every corner summed from zero
// through its weights.
func oracleFromNodal(m *mesh.Mesh, fields []*la.Vec) [][][8]float64 {
	out := make([][][8]float64, len(fields))
	for f, v := range fields {
		vals := m.GatherSlots(v.Data)[0]
		out[f] = make([][8]float64, len(m.Leaves))
		for ei := range m.Leaves {
			cs := oracleCorners(m, ei)
			for c := 0; c < 8; c++ {
				cr := &cs[c]
				for k := 0; k < int(cr.N); k++ {
					out[f][ei][c] += cr.W[k] * vals[cr.Slot[k]]
				}
			}
		}
	}
	return out
}

// oracleRefine interpolates element-corner data on m's elements onto
// their children, eight per element in curve order, as field.Project
// does for a leaf refined once: fem's shape values at the child corner,
// summed from zero in corner order.
func oracleRefine(data [][][8]float64) [][][8]float64 {
	out := make([][][8]float64, len(data))
	for f, d := range data {
		out[f] = make([][8]float64, 8*len(d))
		for j := range out[f] {
			ch := j % 8
			for c := 0; c < 8; c++ {
				xi := [3]float64{float64(ch&1+c&1) / 2, float64(ch>>1&1+c>>1&1) / 2, float64(ch>>2&1+c>>2&1) / 2}
				var v float64
				for k, s := range d[j/8] {
					v += s * fem.ShapeValue(k, xi)
				}
				out[f][j][c] = v
			}
		}
	}
	return out
}

// oracleToNodal is field.Routed.ToNodal: each owned node takes the value
// of its corner in the element that holds its canonical cell
// (Mesh.OwnedCell), the corner found by slot.
func oracleToNodal(m *mesh.Mesh, data [][][8]float64) []*la.Vec {
	out := make([]*la.Vec, len(data))
	for f := range out {
		out[f] = la.NewVec(m.Layout())
	}
	for i, cell := range m.OwnedCell {
		ei := m.FindLocalElement(cell.Tree, cell.O)
		if ei < 0 {
			panic(fmt.Sprintf("oracleToNodal: node %d's canonical cell %v is not local", i, cell))
		}
		cs := oracleCorners(m, ei)
		c := 0
		for c < 8 && (cs[c].N != 1 || int(cs[c].Slot[0]) != i) {
			c++
		}
		if c == 8 {
			panic(fmt.Sprintf("oracleToNodal: node %d is no independent corner of element %d", i, ei))
		}
		for f := range out {
			out[f].Data[i] = data[f][ei][c]
		}
	}
	return out
}

// oracleVariation is errind.Variation: the corner-value range per element.
func oracleVariation(m *mesh.Mesh, T *la.Vec) []float64 {
	vals := m.GatherSlots(T.Data)[0]
	out := make([]float64, len(m.Leaves))
	for ei := range out {
		cs := oracleCorners(m, ei)
		lo, hi := math.Inf(1), math.Inf(-1)
		for c := 0; c < 8; c++ {
			var v float64
			for k := 0; k < int(cs[c].N); k++ {
				v += cs[c].W[k] * vals[cs[c].Slot[k]]
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		out[ei] = hi - lo
	}
	return out
}

// frontBox is the unit box refined three times along the tilted plane
// x + 0.3 y + 0.2 z = 0.75 (the shape of the benchmark's box-amr meshes),
// at the given base level.
func frontBox(r *sim.Rank, base uint8) *mesh.Mesh {
	f := forest.New(r, unitBox, base)
	for pass := 0; pass < 3; pass++ {
		f.Refine(func(o forest.Octant) bool {
			lo := float64(o.O.X) + 0.3*float64(o.O.Y) + 0.2*float64(o.O.Z)
			c := 0.75 * float64(morton.RootLen)
			return lo <= c && c <= lo+2*float64(o.O.Len())
		})
	}
	f.Balance()
	f.Partition()
	return mesh.Extract(f, nil)
}

// adaptedShell is the level-1 cubed-sphere shell refined once on three
// trees and once more along one face of tree 1.
func adaptedShell(r *sim.Rank) *mesh.Mesh {
	shell := forest.CubedSphere(2)
	f := forest.New(r, shell, 1)
	f.Refine(func(o forest.Octant) bool { return o.Tree < 3 })
	f.Refine(func(o forest.Octant) bool { return o.Tree == 1 && o.O.Level == 2 && o.O.X == 0 })
	f.Balance()
	f.Partition()
	return mesh.Extract(f, mesh.NewShellGeometry(shell))
}

// TestCornerRowsMatchOracles runs the production loops that read
// Mesh.Rows and Mesh.Hang — the matrix-free Stokes apply, a width-1 and
// a width-3 multigrid level apply, advect.RateOfChange, field.Project
// and Routed.ToNodal through one uniform refinement, errind.Variation —
// against the per-corner {N, Slot, W} oracles above, on one and two
// ranks of the front box and of an adapted cubed-sphere shell (both with
// hanging corners, at two ranks also across the rank boundary), and
// requires every output bit for bit. At one rank the matrix-free apply
// is the whole mesh's plain element-order accumulation, whatever the
// host's core count.
func TestCornerRowsMatchOracles(t *testing.T) {
	frontBox2 := func(r *sim.Rank) *mesh.Mesh { return frontBox(r, 2) }
	cases := []struct {
		name  string
		build func(r *sim.Rank) *mesh.Mesh
		ranks int
	}{
		{"front box", frontBox2, 1},
		{"front box", frontBox2, 2},
		{"adapted shell", adaptedShell, 1},
		{"adapted shell", adaptedShell, 2},
	}
	dom := fem.UnitDomain
	for _, tc := range cases {
		sim.Run(tc.ranks, func(r *sim.Rank) {
			m := tc.build(r)
			id := fmt.Sprintf("%s rank %d of %d", tc.name, r.ID(), tc.ranks)
			if st := m.GlobalStats(); st.HangingLocal == 0 {
				t.Errorf("%s: mesh has no hanging corners", id)
			} else if r.ID() == 0 {
				t.Logf("%s at %d ranks: %d elements, %d hanging corners", tc.name, tc.ranks, st.Elements, st.HangingLocal)
			}
			same := func(what string, got, want []float64) {
				t.Helper()
				if len(got) != len(want) {
					t.Errorf("%s %s: %d values, oracle %d", id, what, len(got), len(want))
					return
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s %s[%d] = %v, oracle %v", id, what, i, got[i], want[i])
						return
					}
				}
			}
			// Smooth nodal data with a sharp front, and per-element data
			// that varies between neighbours.
			coord := func(i int) [3]float64 { return fem.NodeCoord(m, dom, i) }
			nodal := func(seed float64) *la.Vec {
				v := la.NewVec(m.Layout())
				for i := range v.Data {
					x := coord(i)
					v.Data[i] = math.Sin(seed+3*x[0]+2*x[1]-x[2]) + math.Tanh(20*(x[0]+0.3*x[1]-0.6))
				}
				return v
			}
			eta := make([]float64, len(m.Leaves))
			vel := make([][8][3]float64, len(m.Leaves))
			for ei := range m.Leaves {
				xc := fem.ElemCornerCoords(m, dom, ei)
				eta[ei] = math.Exp(2 * math.Sin(7*xc[0][0]+3*xc[0][2]))
				for c, x := range xc {
					vel[ei][c] = [3]float64{0.5 - x[1], x[0] - 0.5, 0.3 * x[2]}
				}
			}

			// matfree: zero-valued Dirichlet velocities on a gid pattern
			// and one pinned pressure.
			ns := m.NSlots()
			cons := matfree.Constraints{Fixed: make([]bool, 4*ns), Val: make([]float64, 4*ns)}
			for s := 0; s < ns; s++ {
				g := m.GID(int32(s))
				cons.Fixed[4*s] = g%5 == 0
				cons.Fixed[4*s+2] = g%7 == 3
				cons.Fixed[4*s+3] = g == 0
			}
			layout := la.NewLayout(r, 4*m.NumOwned)
			op := matfree.New(m, dom, layout, eta, cons)
			x := la.NewVec(layout)
			for i := range x.Data {
				x.Data[i] = math.Cos(0.37*float64(4*m.Offset+int64(i))) - 0.2
			}
			y, yo := la.NewVec(layout), la.NewVec(layout)
			op.Apply(x, y)
			oracleStokesApply(m, dom, eta, cons.Fixed, x, yo)
			same("matfree Apply", y.Data, yo.Data)

			// gmg: the finest level's operator at widths 1 and 3, each
			// field with its own Dirichlet set.
			lv := newLevel(m, dom, false)
			lv.eta = eta
			bcds := fem.GatherBC(m, dom,
				func(x [3]float64) (float64, bool) { return 0, x[0] > 0.9 },
				func(x [3]float64) (float64, bool) { return 0, x[1] < 0.05 && x[1] > -0.05 },
				func(x [3]float64) (float64, bool) { return 0, false })
			for _, w := range []int{1, 3} {
				o := newLevelOp(lv, bcds[:w])
				xw := make([]float64, w*m.NumOwned)
				for i := range xw {
					xw[i] = math.Sin(0.61*float64(int64(w)*m.Offset+int64(i))) + 0.1
				}
				yw, ywo := make([]float64, len(xw)), make([]float64, len(xw))
				o.apply(xw, yw)
				oracleLevelApply(o, xw, ywo)
				same(fmt.Sprintf("gmg level apply (width %d)", w), yw, ywo)
			}

			// advect: one rate evaluation, bottom boundary held fixed.
			bc := func(x [3]float64) (float64, bool) { return 1, x[2] < 0.05 }
			T := nodal(0.3)
			rate := la.NewVec(m.Layout())
			advect.New(m, dom, 1e-3, vel, nil, bc).RateOfChange(T, rate)
			same("advect RateOfChange", rate.Data, oracleRate(m, dom, 1e-3, vel, bc, T).Data)

			// field: every leaf refined once and kept on its rank, so each
			// new corner interpolates all eight old corners, hanging ones
			// included, and the new nodes read them back.
			fields := []*la.Vec{T, nodal(1.1)}
			old := make([]forest.Octant, len(m.Leaves))
			for ei, o := range m.Leaves {
				old[ei] = forest.Octant{Tree: m.Trees[ei], O: o}
			}
			fine := forest.FromLeaves(r, m.Conn, old)
			fine.Refine(func(forest.Octant) bool { return true })
			n := fine.NumLocal()
			kept := forest.Route{SendTo: []int{r.ID()}, SendCnt: []int{n}, RecvFrom: []int{r.ID()}, RecvCnt: []int{n}}
			routed := field.Project(m, fields, fine.Leaves(), kept)
			routed.Transfer(r)
			nm := mesh.Extract(fine, m.Geom)
			back, backo := routed.ToNodal(nm), oracleToNodal(nm, oracleRefine(oracleFromNodal(m, fields)))
			for f := range back {
				same(fmt.Sprintf("field Project+ToNodal %d", f), back[f].Data, backo[f].Data)
			}
			same("errind Variation", errind.Variation(m, T), oracleVariation(m, T))
		})
	}
}
