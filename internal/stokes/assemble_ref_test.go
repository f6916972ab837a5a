package stokes

// The assembled coupled operator has one body, assembleCoupled, which
// rotates blocks into the boundary frames of the nodes that have one.
// The frameless loop without rotation branches is kept here as its
// oracle. la.Mat accumulates into a map per row, so only the order of
// the contributions to one (row, col) entry can change a sum, and for a
// fixed row both loops visit the column nodes (b, ib) in the same
// order: the two must agree bit for bit, CSR and right-hand side.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// assembleCoupledRef is the frameless coupled assembly as its own loop
// (collective): assembleCoupled with no frame table, without the
// rotation branches.
func (s *Solver) assembleCoupledRef(etaElem []float64, force [][8][3]float64) {
	m, dom := s.M, s.Dom
	fixed, val := s.cons.Fixed, s.cons.Val
	A := la.NewMat(s.Layout)
	bb := la.NewVecBuilder(s.Layout)

	for ei, leaf := range m.Leaves {
		eta := etaElem[ei]
		var Av [24][24]float64
		var Bd [8][24]float64
		var Cs, M8 [8][8]float64
		if s.stokesKern != nil {
			// Mapped elements: scale the cached per-element unit kernels —
			// exactly what the matrix-free apply multiplies against.
			k := s.stokesKern[ei]
			Av, Bd, M8 = k.Av, k.Bd, k.M8
			inv := 1 / eta
			for a := 0; a < 24; a++ {
				for b := 0; b < 24; b++ {
					Av[a][b] *= eta
				}
			}
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					Cs[a][b] = inv * k.Cs[a][b]
				}
			}
		} else {
			h := dom.ElemSize(leaf)
			Av = fem.ViscousBrick(h, eta)
			Bd = fem.DivergenceBrick(h)
			Cs = fem.StabilizationBrick(h, eta)
			M8 = fem.MassBrick(h, 1)
		}
		cs := &m.Corners[ei]

		// Consistent body-force load: F[a][i] = sum_b M8[a][b] f[b][i].
		var F [8][3]float64
		if force != nil {
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					for i := 0; i < 3; i++ {
						F[a][i] += M8[a][b] * force[ei][b][i]
					}
				}
			}
		}

		for a := 0; a < 8; a++ {
			for ia := 0; ia < int(cs[a].N); ia++ {
				sa, wa := int(cs[a].Slot[ia]), cs[a].W[ia]
				ga := m.GID(cs[a].Slot[ia])
				// Velocity momentum rows.
				for i := 0; i < 3; i++ {
					if fixed[4*sa+i] {
						continue
					}
					row := 4*ga + int64(i)
					bb.Add(row, wa*F[a][i])
					for b := 0; b < 8; b++ {
						for ib := 0; ib < int(cs[b].N); ib++ {
							sb, wb := int(cs[b].Slot[ib]), cs[b].W[ib]
							gb := m.GID(cs[b].Slot[ib])
							w := wa * wb
							// viscous block
							for j := 0; j < 3; j++ {
								v := w * Av[3*a+i][3*b+j]
								if v == 0 {
									continue
								}
								if fixed[4*sb+j] {
									bb.Add(row, -v*val[4*sb+j])
								} else {
									A.AddValue(row, 4*gb+int64(j), v)
								}
							}
							// grad-p coupling: entry (v-row (a,i), p-col b)
							v := w * Bd[b][3*a+i]
							if v != 0 {
								if fixed[4*sb+3] {
									bb.Add(row, -v*val[4*sb+3])
								} else {
									A.AddValue(row, 4*gb+3, v)
								}
							}
						}
					}
				}
				// Pressure continuity row.
				if fixed[4*sa+3] {
					continue
				}
				prow := 4*ga + 3
				for b := 0; b < 8; b++ {
					for ib := 0; ib < int(cs[b].N); ib++ {
						sb, wb := int(cs[b].Slot[ib]), cs[b].W[ib]
						gb := m.GID(cs[b].Slot[ib])
						w := wa * wb
						for j := 0; j < 3; j++ {
							v := w * Bd[a][3*b+j]
							if v == 0 {
								continue
							}
							if fixed[4*sb+j] {
								bb.Add(prow, -v*val[4*sb+j])
							} else {
								A.AddValue(prow, 4*gb+int64(j), v)
							}
						}
						// stabilization block: -C
						v := -w * Cs[a][b]
						if v != 0 {
							if fixed[4*sb+3] {
								bb.Add(prow, -v*val[4*sb+3])
							} else {
								A.AddValue(prow, 4*gb+3, v)
							}
						}
					}
				}
			}
		}
	}
	s.finishCoupled(A, bb)
}

// TestAssembledBodyMatchesPlainLoop assembles the coupled operator with
// assembleCoupled and with the plain oracle loop, on the unit box with
// hanging nodes and on a mapped 2x1x1 brick, at 1, 2 and 3 ranks, with
// variable viscosity, a body force and non-zero Dirichlet values, and
// requires every CSR entry and right-hand side entry to be identical.
func TestAssembledBodyMatchesPlainLoop(t *testing.T) {
	type domain struct {
		name string
		dom  fem.Domain
		mesh func(r *sim.Rank) *mesh.Mesh
	}
	brick := forest.BrickConnectivity(2, 1, 1)
	domains := []domain{
		{"box", fem.UnitDomain, func(r *sim.Rank) *mesh.Mesh { return buildMesh(r, 2, true) }},
		{"brick", fem.Domain{Box: [3]float64{2, 1, 1}}, func(r *sim.Rank) *mesh.Mesh {
			f := forest.New(r, brick, 1)
			f.Refine(func(o forest.Octant) bool { return o.Tree == 1 && o.O.X == 0 && o.O.Y == 0 && o.O.Z == 0 })
			f.Balance()
			f.Partition()
			return mesh.Extract(f, mesh.TrilinearGeometry{Conn: brick})
		}},
	}
	for _, d := range domains {
		for _, p := range []int{1, 2, 3} {
			d, p := d, p
			sim.Run(p, func(r *sim.Rank) {
				m := d.mesh(r)
				eta := randomViscosity(m, 5)
				force := randomForce(m, 11)
				free := FreeSlip(d.dom.Box)
				bc := func(x [3]float64) (fixed [3]bool, vals [3]float64) {
					fixed, _ = free(x)
					for i := range vals {
						if fixed[i] {
							vals[i] = 0.1*x[0] - 0.2*x[1] + 0.3*x[2]
						}
					}
					return fixed, vals
				}
				s := Setup(m, d.dom, bc, Options{}).Update(eta, force)
				if s.hasSlip || (d.name == "brick") != (s.stokesKern != nil) {
					t.Fatalf("%s p=%d: not the frameless %s path", d.name, p, d.name)
				}
				A, B := s.A.GatherGlobalCSR(), s.B.Clone()
				s.assembleCoupledRef(eta, force)
				ref, refB := s.A.GatherGlobalCSR(), s.B
				diff := 0
				if A.N != ref.N || len(A.Vals) != len(ref.Vals) {
					t.Fatalf("%s p=%d: %d rows, %d nonzeros; oracle %d, %d", d.name, p, A.N, len(A.Vals), ref.N, len(ref.Vals))
				}
				for i := range A.RowPtr {
					if A.RowPtr[i] != ref.RowPtr[i] {
						diff++
					}
				}
				for k := range A.Vals {
					if A.ColIdx[k] != ref.ColIdx[k] || math.Float64bits(A.Vals[k]) != math.Float64bits(ref.Vals[k]) {
						diff++
					}
				}
				for i := range B.Data {
					if math.Float64bits(B.Data[i]) != math.Float64bits(refB.Data[i]) {
						diff++
					}
				}
				if r.ID() == 0 {
					t.Logf("%s p=%d: %d rows, %d nonzeros, %d differing CSR or RHS entries", d.name, p, A.N, len(A.Vals), diff)
				}
				if diff != 0 {
					t.Errorf("%s p=%d rank %d: %d entries differ from the plain loop", d.name, p, r.ID(), diff)
				}
			})
		}
	}
}
