package amg

import (
	"rhea/internal/la"
)

// Redundant is the globally consistent AMG preconditioner: the fully
// assembled operator is replicated on every rank and each rank runs an
// identical V-cycle on the globally gathered residual, keeping its owned
// slice of the result. This reproduces the algorithmic behaviour of the
// paper's (distributed) BoomerAMG — Krylov iteration counts independent
// of the rank count — at the price of replicated setup, which is the
// right trade at the problem sizes this repository runs (the paper's
// distributed AMG is substituted per docs/ARCHITECTURE.md).
type Redundant struct {
	H      *Hierarchy
	layout *la.Layout
	out    []float64
}

// NewRedundant gathers the distributed matrix and builds the replicated
// hierarchy (collective). The geometric multigrid's coarsest level
// does not come here: package gmg gathers it onto one rank and factors
// it there, so replication is confined to callers that explicitly ask
// for it.
func NewRedundant(A *la.Mat, opts Options) *Redundant {
	csr := A.GatherGlobalCSR()
	return &Redundant{
		H:      Setup(csr, opts),
		layout: A.Layout,
		out:    make([]float64, A.Layout.N()),
	}
}

// Apply runs one V-cycle on the gathered vector: y = M^-1 x (collective).
func (rd *Redundant) Apply(x, y *la.Vec) {
	full := la.GatherGlobal(x)
	rd.H.Cycle(full, rd.out)
	copy(y.Data, rd.out[rd.layout.Start():rd.layout.Start()+int64(len(y.Data))])
}
