package gmg

import (
	"fmt"
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// A level keeps its unit kernels as packed upper triangles and nothing
// else per element: the smoother diagonal is derived from the kernels on
// every Rebuild, and the coarse matrix reads the packed entries. The
// oracles below are what that replaced — the per-element (slot, elem,
// coef) diagonal plan built once per hierarchy with its flat scan, and
// the coarse assembly over the full 8x8 kernels — and
// TestDerivedLevelDataMatchesOracles holds the production paths to them
// with math.Float64bits.

// diagTerm is one precomputed contribution eta[Elem]*Coef to the
// operator diagonal at Slot.
type diagTerm struct {
	Slot, Elem int32
	Coef       float64
}

// buildDiagPlan collects, for every slot of the level, the coefficients
// of its operator-diagonal entry as a linear function of the element
// viscosities: Coef sums wa*wb*K_unit[a][b] over every corner pair of
// Elem whose constraint masters both resolve to the slot's node.
func buildDiagPlan(lv *level) []diagTerm {
	var plan []diagTerm
	for ei := range lv.mesh.Rows {
		cs := oracleCorners(lv.mesh, ei)
		K := lv.kern[lv.kidx[ei]].Full()
		var slots [32]int32
		var coefs [32]float64
		nloc := 0
		for a := 0; a < 8; a++ {
			ca := &cs[a]
			for ia := 0; ia < int(ca.N); ia++ {
				sa, wa := ca.Slot[ia], ca.W[ia]
				var v float64
				for b := 0; b < 8; b++ {
					cb := &cs[b]
					for ib := 0; ib < int(cb.N); ib++ {
						if cb.Slot[ib] == sa {
							v += wa * cb.W[ib] * K[a][b]
						}
					}
				}
				found := false
				for k := 0; k < nloc; k++ {
					if slots[k] == sa {
						coefs[k] += v
						found = true
						break
					}
				}
				if !found {
					slots[nloc], coefs[nloc] = sa, v
					nloc++
				}
			}
		}
		for k := 0; k < nloc; k++ {
			plan = append(plan, diagTerm{Slot: slots[k], Elem: int32(ei), Coef: coefs[k]})
		}
	}
	return plan
}

// oracleDiag is the plan's flat scan at the level's viscosity plus the
// ghost scatter-add (collective on the level's communicator).
func oracleDiag(lv *level, plan []diagTerm) []float64 {
	m := lv.mesh
	n := m.NumOwned
	acc := make([]float64, m.NSlots())
	for _, t := range plan {
		acc[t.Slot] += lv.eta[t.Elem] * t.Coef
	}
	d := make([]float64, n)
	copy(d, acc[:n])
	m.GX.ScatterAdd(acc[n:], d)
	return d
}

// oracleCoarseFactor assembles the coarsest level's matrix over the full
// 8x8 kernels, as factorCoarse did before the kernels were packed, and
// factors it.
func oracleCoarseFactor(lv *level, bcd *fem.BCData) []float64 {
	m := lv.mesh
	n := m.NumOwned
	a := make([]float64, n*(n+1)/2)
	for ei := range m.Rows {
		cs := oracleCorners(m, ei)
		K, eta := lv.kern[lv.kidx[ei]].Full(), lv.eta[ei]
		for p := 0; p < 8; p++ {
			for ip := 0; ip < int(cs[p].N); ip++ {
				sp, wp := int(cs[p].Slot[ip]), cs[p].W[ip]
				if bcd.IsSet(int32(sp)) {
					continue
				}
				row := a[sp*(sp+1)/2:]
				for q := 0; q < 8; q++ {
					for iq := 0; iq < int(cs[q].N); iq++ {
						sq := int(cs[q].Slot[iq])
						if sq > sp || bcd.IsSet(int32(sq)) {
							continue
						}
						row[sq] += wp * cs[q].W[iq] * (K[p][q] * eta)
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if bcd.IsSet(int32(i)) {
			a[i*(i+1)/2+i] = 1
		}
	}
	cholesky(a, n, -1, -1)
	return a
}

// TestDerivedLevelDataMatchesOracles builds a hierarchy with a variable
// viscosity and a width-3 cycle on two ranks of the front box and of an
// adapted shell (hanging corners on and across the rank boundary, on the
// fine and the coarse levels) and requires, on every level of every
// rank's stack, bit for bit: the smoother diagonal against the diagonal
// plan's scan, the width-3 and width-1 level applies against the 8x8
// oracle loop, and each field's coarse factor against the factor of the
// full-kernel assembly.
func TestDerivedLevelDataMatchesOracles(t *testing.T) {
	cases := []struct {
		name  string
		build func(r *sim.Rank) *mesh.Mesh
	}{
		{"front box", func(r *sim.Rank) *mesh.Mesh { return frontBox(r, 2) }},
		{"adapted shell", adaptedShell},
	}
	dom := fem.UnitDomain
	for _, tc := range cases {
		sim.Run(2, func(r *sim.Rank) {
			m := tc.build(r)
			eta := make([]float64, len(m.Leaves))
			for ei := range eta {
				x := fem.ElemCornerCoords(m, dom, ei)[0]
				eta[ei] = math.Exp(2 * math.Sin(7*x[0]+3*x[2]))
			}
			h := New(m, dom, eta, Options{})
			c := h.PrecondBlock([]fem.ScalarBC{
				func(x [3]float64) (float64, bool) { return 0, x[0] > 0.5 },
				func(x [3]float64) (float64, bool) { return 0, x[1] > 0.5 },
				func(x [3]float64) (float64, bool) { return 0, x[2] < 0.25 },
			})
			hanging, compared := 0, 0
			for l, lv := range h.levels {
				id := fmt.Sprintf("%s rank %d level %d", tc.name, r.ID(), l)
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
				hanging += len(lv.mesh.Hang)
				if h.coarseHere && l == len(h.levels)-1 {
					for k, bcd := range c.coarseBC {
						same(fmt.Sprintf("coarse factor %d", k), c.coarse[k].l, oracleCoarseFactor(lv, bcd))
					}
					compared++
					break
				}
				if lv.repart {
					continue
				}
				same("smoother diagonal", h.diagEta[l].Data, oracleDiag(lv, buildDiagPlan(lv)))
				o := c.ops[l]
				for _, op := range []*levelOp{o, o.field(0)} {
					x := make([]float64, op.w*lv.mesh.NumOwned)
					for i := range x {
						x[i] = math.Sin(0.61*float64(int64(op.w)*lv.mesh.Offset+int64(i))) + 0.1
					}
					y, yo := make([]float64, len(x)), make([]float64, len(x))
					op.apply(x, y)
					oracleLevelApply(op, x, yo)
					same(fmt.Sprintf("level apply (width %d)", op.w), y, yo)
				}
				compared++
			}
			if hanging == 0 {
				t.Errorf("%s rank %d: no level has a hanging corner", tc.name, r.ID())
			}
			if r.ID() == 0 {
				t.Logf("%s: %d levels compared on rank 0, %d hanging corners", tc.name, compared, hanging)
			}
		})
	}
}
