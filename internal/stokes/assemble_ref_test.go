package stokes

// The assembled coupled operator, kept as the oracle the matrix-free
// operator is held to: a distributed CSR and right-hand side built from
// the tabulated element matrices (fem.StokesKernels), with the same
// Dirichlet elimination (identity rows for constrained owned dofs,
// constrained columns moved to the right-hand side) and, at nodes with a
// rotated boundary frame, every block conjugated into the frames of its
// row and column nodes. One oracle serves box, mapped and slip meshes.

import (
	"testing"

	"rhea/internal/fem"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
)

// matTVec returns Q^T v (Cartesian -> local components).
func matTVec(Q *[3][3]float64, v [3]float64) [3]float64 {
	return [3]float64{
		Q[0][0]*v[0] + Q[1][0]*v[1] + Q[2][0]*v[2],
		Q[0][1]*v[0] + Q[1][1]*v[1] + Q[2][1]*v[2],
		Q[0][2]*v[0] + Q[1][2]*v[1] + Q[2][2]*v[2],
	}
}

// vecMat returns v^T Q, the row vector v with its columns rotated into
// the local frame of the column node.
func vecMat(v [3]float64, Q *[3][3]float64) [3]float64 {
	return [3]float64{
		v[0]*Q[0][0] + v[1]*Q[1][0] + v[2]*Q[2][0],
		v[0]*Q[0][1] + v[1]*Q[1][1] + v[2]*Q[2][1],
		v[0]*Q[0][2] + v[1]*Q[1][2] + v[2]*Q[2][2],
	}
}

// rotBlock conjugates the 3x3 Cartesian coupling block V into the row
// node's and column node's local frames: Qa^T V Qb (each rotation only
// where the node actually carries a frame).
func rotBlock(Qa *[3][3]float64, aRot bool, V [3][3]float64, Qb *[3][3]float64, bRot bool) [3][3]float64 {
	if aRot {
		var W [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				W[i][j] = Qa[0][i]*V[0][j] + Qa[1][i]*V[1][j] + Qa[2][i]*V[2][j]
			}
		}
		V = W
	}
	if bRot {
		var W [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				W[i][j] = V[i][0]*Qb[0][j] + V[i][1]*Qb[1][j] + V[i][2]*Qb[2][j]
			}
		}
		V = W
	}
	return V
}

// assembleCoupled builds the coupled saddle-point CSR and right-hand side
// of a Q1 solver for the given viscosity and force (collective), from the
// solver's constraint and frame tables.
//
// At a node with a rotated boundary frame (free slip, cons.Frames) every
// velocity coupling block is conjugated Qa^T V Qb into the local frames
// of its row and column master nodes, grad-p columns and divergence rows
// are rotated on their velocity side, and the body-force load lands in
// the row node's local frame — after which the plain local-index
// Dirichlet elimination constrains exactly the boundary-normal
// components. Without frames (nil table) nothing rotates.
func (s *Solver) assembleCoupled(etaElem []float64, force [][8][3]float64) (*la.Mat, *la.Vec) {
	if s.q2 != nil {
		panic("stokes: the assembled oracle is Q1 only")
	}
	m := s.M
	fixed, val, frames := s.cons.Fixed, s.cons.Val, s.cons.Frames
	A := la.NewMat(s.Layout)
	bb := la.NewVecBuilder(s.Layout)
	// One tabulated kernel per distinct geometry: per element on mapped
	// meshes, per octree level on axis-aligned ones.
	kern := map[*fem.ElemGeom]*fem.StokesKernels{}

	for ei, g := range fem.ElemGeomOf(m, s.Dom) {
		k, ok := kern[g]
		if !ok {
			k = fem.NewStokesKernelsGeom(g)
			kern[g] = k
		}
		// Scale the unit kernels by the element's viscosity.
		eta := etaElem[ei]
		Av, Bd, M8 := k.Av, k.Bd, k.M8
		var Cs [8][8]float64
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
		var cs [8]mesh.Corner
		for a := range cs {
			cs[a] = m.Corner(ei, a)
		}

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
				var Qa *[3][3]float64
				if frames != nil {
					Qa = frames[sa]
				}
				aRot := Qa != nil
				fa := F[a]
				if aRot {
					fa = matTVec(Qa, fa)
				}
				var rowOK [3]bool
				for i := 0; i < 3; i++ {
					if !fixed[4*sa+i] {
						rowOK[i] = true
						bb.Add(4*ga+int64(i), wa*fa[i])
					}
				}
				pFixed := fixed[4*sa+3]
				for b := 0; b < 8; b++ {
					for ib := 0; ib < int(cs[b].N); ib++ {
						sb, wb := int(cs[b].Slot[ib]), cs[b].W[ib]
						gb := m.GID(cs[b].Slot[ib])
						w := wa * wb
						var Qb *[3][3]float64
						if frames != nil {
							Qb = frames[sb]
						}
						bRot := Qb != nil
						var V [3][3]float64
						for i := 0; i < 3; i++ {
							for j := 0; j < 3; j++ {
								V[i][j] = Av[3*a+i][3*b+j]
							}
						}
						if aRot || bRot {
							V = rotBlock(Qa, aRot, V, Qb, bRot)
						}
						G := [3]float64{Bd[b][3*a], Bd[b][3*a+1], Bd[b][3*a+2]}
						if aRot {
							G = matTVec(Qa, G)
						}
						D := [3]float64{Bd[a][3*b], Bd[a][3*b+1], Bd[a][3*b+2]}
						if bRot {
							D = vecMat(D, Qb)
						}
						for i := 0; i < 3; i++ {
							if !rowOK[i] {
								continue
							}
							row := 4*ga + int64(i)
							for j := 0; j < 3; j++ {
								v := w * V[i][j]
								if v == 0 {
									continue
								}
								if fixed[4*sb+j] {
									bb.Add(row, -v*val[4*sb+j])
								} else {
									A.AddValue(row, 4*gb+int64(j), v)
								}
							}
							if v := w * G[i]; v != 0 {
								if fixed[4*sb+3] {
									bb.Add(row, -v*val[4*sb+3])
								} else {
									A.AddValue(row, 4*gb+3, v)
								}
							}
						}
						if !pFixed {
							prow := 4*ga + 3
							for j := 0; j < 3; j++ {
								v := w * D[j]
								if v == 0 {
									continue
								}
								if fixed[4*sb+j] {
									bb.Add(prow, -v*val[4*sb+j])
								} else {
									A.AddValue(prow, 4*gb+int64(j), v)
								}
							}
							if v := -w * Cs[a][b]; v != 0 {
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
	}

	// Identity rows and boundary values for the constrained owned dofs.
	owned := fixed[:4*m.NumOwned]
	for d, is := range owned {
		if g := 4*m.Offset + int64(d); is {
			A.AddValue(g, g, 1)
		}
	}
	A.Assemble()
	b := bb.Finalize()
	for d, is := range owned {
		if is {
			b.Data[d] = val[d]
		}
	}
	return A, b
}

// oracle returns the assembled coupled CSR and right-hand side of s's
// mesh and constraints for etaElem and force (collective), after checking
// that the two sides of a comparison really differ in kind: s applies the
// matrix-free operator, and the oracle is a CSR with entries in every
// row.
func oracle(t *testing.T, s *Solver, etaElem []float64, force [][8][3]float64) (*la.Mat, *la.Vec) {
	t.Helper()
	if s.MF == nil || s.Op != krylov.Operator(s.MF) {
		t.Fatalf("the solver does not apply the matrix-free operator")
	}
	A, b := s.assembleCoupled(etaElem, force)
	csr := A.LocalCSR()
	for i := 0; i < csr.N; i++ {
		if csr.RowPtr[i+1] == csr.RowPtr[i] {
			t.Fatalf("the oracle is not an assembled CSR: owned row %d of %d is empty", i, csr.N)
		}
	}
	return A, b
}
