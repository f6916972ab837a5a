package fem

import (
	"rhea/internal/la"
	"rhea/internal/mesh"
)

// AssembleScalarDiag computes the diagonal of the constrained scalar
// operator AssembleScalar would assemble — without forming the matrix
// (collective). A global node's diagonal entry collects wa*wb*K[a][b]
// over every element corner pair (a,b) whose constraint masters both
// resolve to that node; Dirichlet rows get exactly 1, matching the
// identity rows of the assembled path. Matrix-free smoothers (Jacobi,
// Chebyshev) are built from this diagonal, so no fine-level CSR is ever
// needed.
func AssembleScalarDiag(
	m *mesh.Mesh, dom Domain,
	elemMat func(ei int, h [3]float64) [8][8]float64,
	bcd *BCData,
) *la.Vec {
	l := m.Layout()
	bb := la.NewVecBuilder(l)
	for ei, leaf := range m.Leaves {
		h := dom.ElemSize(leaf)
		K := elemMat(ei, h)
		cs := &m.Corners[ei]
		for a := 0; a < 8; a++ {
			for ia := 0; ia < int(cs[a].N); ia++ {
				sa, wa := cs[a].Slot[ia], cs[a].W[ia]
				if bcd.IsSet(sa) {
					continue
				}
				for b := 0; b < 8; b++ {
					for ib := 0; ib < int(cs[b].N); ib++ {
						if cs[b].Slot[ib] == sa {
							bb.Add(m.GID(sa), wa*cs[b].W[ib]*K[a][b])
						}
					}
				}
			}
		}
	}
	d := bb.Finalize()
	for i := 0; i < m.NumOwned; i++ {
		if bcd.IsSet(int32(i)) {
			d.Data[i] = 1
		}
	}
	return d
}
