package gmg

import (
	"fmt"
	"math"

	"rhea/internal/fem"
)

// coarseFactor is the exact solve of one field on the coarsest level: the
// Cholesky factor L (A = L Lᵀ) of the field's viscosity-scaled stiffness
// matrix, dense, its lower triangle packed by rows (L[i][j], j <= i, at
// i(i+1)/2 + j). The level sits on one rank, so its node slots are
// exactly its owned nodes and the matrix is this rank's alone; a few
// dozen elements make it a few hundred rows at most.
type coarseFactor struct {
	n int
	l []float64
}

// pivotTol is the smallest pivot, relative to its row's diagonal entry,
// that factorCoarse accepts. An SPD coarse operator keeps its pivots
// within its (Jacobi-scaled) condition number of the diagonal, orders of
// magnitude above this; a singular one — no Dirichlet row pins its
// constants — leaves its last pivot at rounding level, below it.
const pivotTol = 1e-10

// factorCoarse assembles field k's matrix on coarsest level l from the
// cached unit kernels, the level viscosity and the corner table — Dirichlet
// rows and columns identity, as fem.AssembleScalarWithBC builds them — and
// factors it (local). A pivot that is not safely positive means the
// operator is not SPD; that panics with the level, field and pivot
// instead of handing the cycle a solve that is not one.
func factorCoarse(lv *level, bcd *fem.BCData, l, k int) coarseFactor {
	m := lv.mesh
	n := m.NumOwned
	if m.NSlots() != n {
		panic(fmt.Sprintf("gmg: coarsest level %d has %d ghost slots; it must sit on one rank", l, m.NSlots()-n))
	}
	a := make([]float64, n*(n+1)/2)
	for ei := range m.Corners {
		cs := &m.Corners[ei]
		K, eta := &lv.kern[lv.kidx[ei]], lv.eta[ei]
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

	// Row-oriented (Cholesky–Banachiewicz) factorization in place.
	for i := 0; i < n; i++ {
		ri := a[i*(i+1)/2:][:i+1]
		for j := 0; j < i; j++ {
			rj := a[j*(j+1)/2:][:j+1]
			s := ri[j]
			for q, v := range rj[:j] {
				s -= ri[q] * v
			}
			ri[j] = s / rj[j]
		}
		d := ri[i]
		for _, v := range ri[:i] {
			d -= v * v
		}
		if !(d > pivotTol*ri[i]) {
			panic(fmt.Sprintf("gmg: coarsest level %d, field %d: Cholesky pivot %d of %d is %g (diagonal %g): the coarse operator is not positive definite",
				l, k, i, n, d, ri[i]))
		}
		ri[i] = math.Sqrt(d)
	}
	return coarseFactor{n: n, l: a}
}

// solve writes A⁻¹ b into field k of x, both holding w fields per node
// node-major (local): forward substitution with L, back substitution with
// Lᵀ, in place in x.
func (f coarseFactor) solve(b, x []float64, w, k int) {
	for i := 0; i < f.n; i++ {
		row := f.l[i*(i+1)/2:][:i+1]
		s := b[w*i+k]
		for j, v := range row[:i] {
			s -= v * x[w*j+k]
		}
		x[w*i+k] = s / row[i]
	}
	for i := f.n - 1; i >= 0; i-- {
		row := f.l[i*(i+1)/2:][:i+1]
		xi := x[w*i+k] / row[i]
		x[w*i+k] = xi
		for j, v := range row[:i] {
			x[w*j+k] -= v * xi
		}
	}
}
