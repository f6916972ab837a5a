package stokes

import (
	"fmt"
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

// Update evaluates the Schur diagonal from each element's lumped mass
// instead of scanning a per-element (slot, elem, coef) plan that Setup
// built once. schurPlanRef is that plan and schurInvRef its scan;
// TestSchurDiagMatchesPlan holds updateSchur to them with
// math.Float64bits.

// schurTerm is one precomputed contribution (1/eta[Elem])*Coef to the
// lumped pressure mass at Slot.
type schurTerm struct {
	Slot, Elem int32
	Coef       float64
}

// schurPlanRef builds the plan: W*lm[a] for every master of every corner.
func schurPlanRef(s *Solver) []schurTerm {
	m, dom := s.M, s.Dom
	var plan []schurTerm
	for ei, leaf := range m.Leaves {
		// Each element's own geometry, built here rather than shared.
		var g *fem.ElemGeom
		if m.X != nil {
			g = fem.NewElemGeom(&m.X[ei])
		} else {
			g = fem.BrickElemGeom(dom.ElemSize(leaf))
		}
		lm := fem.LumpedMassGeom(g, 1)
		for a := 0; a < 8; a++ {
			ca := m.Corner(ei, a)
			for ia := 0; ia < int(ca.N); ia++ {
				plan = append(plan, schurTerm{Slot: ca.Slot[ia], Elem: int32(ei), Coef: ca.W[ia] * lm[a]})
			}
		}
	}
	return plan
}

// schurInvRef scans the plan at the viscosity etaElem, scatter-adds the
// ghost contributions and inverts (collective).
func schurInvRef(s *Solver, plan []schurTerm, etaElem []float64) []float64 {
	acc := make([]float64, s.M.NSlots())
	for _, t := range plan {
		acc[t.Slot] += t.Coef / etaElem[t.Elem]
	}
	n := s.M.NumOwned
	sd := make([]float64, n)
	copy(sd, acc[:n])
	s.M.GX.ScatterAdd(acc[n:], sd)
	inv := make([]float64, n)
	for i, v := range sd {
		if v > 0 {
			inv[i] = 1 / v
		} else {
			inv[i] = 1
		}
	}
	return inv
}

// TestSchurDiagMatchesPlan runs Setup and two Updates with different
// viscosities on two ranks of a box refined along a tilted front and of
// an adapted cubed-sphere shell (hanging corners on and across the rank
// boundary) and requires the Schur diagonal of each Update to equal the
// plan's bit for bit.
func TestSchurDiagMatchesPlan(t *testing.T) {
	unitBox := forest.BrickConnectivity(1, 1, 1)
	shell := forest.CubedSphere(2)
	g := mesh.NewShellGeometry(shell)
	cases := []struct {
		name  string
		build func(r *sim.Rank) *mesh.Mesh
		bc    VelBC
	}{
		{"front box", func(r *sim.Rank) *mesh.Mesh {
			f := forest.New(r, unitBox, 2)
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
		}, FreeSlip([3]float64{1, 1, 1})},
		{"adapted shell", func(r *sim.Rank) *mesh.Mesh {
			f := forest.New(r, shell, 1)
			f.Refine(func(o forest.Octant) bool { return o.Tree < 3 })
			f.Refine(func(o forest.Octant) bool { return o.Tree == 1 && o.O.Level == 2 && o.O.X == 0 })
			f.Balance()
			f.Partition()
			return mesh.Extract(f, g)
		}, RadialNoSlipInner(g.RInner, g.ROuter)},
	}
	dom := fem.UnitDomain
	for _, tc := range cases {
		sim.Run(2, func(r *sim.Rank) {
			m := tc.build(r)
			if len(m.Hang) == 0 {
				t.Errorf("%s rank %d: no hanging corner", tc.name, r.ID())
			}
			s := Setup(m, dom, tc.bc, Options{})
			plan := schurPlanRef(s)
			for _, s0 := range []float64{0.3, 1.7} {
				eta := contrastViscosity(m, dom, s0)
				s.Update(eta, nil)
				want := schurInvRef(s, plan, eta)
				id := fmt.Sprintf("%s rank %d s0 %g", tc.name, r.ID(), s0)
				if len(s.schurInv.Data) != len(want) {
					t.Fatalf("%s: %d entries, plan %d", id, len(s.schurInv.Data), len(want))
				}
				for i, v := range s.schurInv.Data {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Errorf("%s: schurInv[%d] = %v, plan %v", id, i, v, want[i])
						break
					}
				}
			}
		})
	}
}
