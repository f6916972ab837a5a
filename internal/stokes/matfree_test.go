package stokes

// Property tests for the matrix-free coupled operator (package matfree),
// the one operator the solver applies: on randomized viscosity and
// velocity fields, the fused per-element apply must reproduce the
// assembled CSR oracle (assemble_ref_test.go) and its right-hand side to
// rounding, across refinement levels (with hanging nodes) and rank
// counts, and the matrix-free solve must return the oracle's solution.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// prand is a deterministic hash-based uniform in [0,1): the same value
// for the same key on every rank, so randomized fields are globally
// consistent regardless of the partition.
func prand(seed, key uint64) float64 {
	z := seed*0x9e3779b97f4a7c15 + key
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// randomViscosity draws a log-uniform per-element viscosity in
// [1e-2, 1e2] keyed on the element octant (partition-independent).
func randomViscosity(m *mesh.Mesh, seed uint64) []float64 {
	out := make([]float64, len(m.Leaves))
	for ei, leaf := range m.Leaves {
		u := prand(seed, leaf.Key())
		out[ei] = math.Pow(10, 4*u-2)
	}
	return out
}

// randomForce draws corner forces keyed on physical corner position.
func randomForce(m *mesh.Mesh, seed uint64) [][8][3]float64 {
	out := make([][8][3]float64, len(m.Leaves))
	for ei, leaf := range m.Leaves {
		h := leaf.Len()
		for c := 0; c < 8; c++ {
			p := [3]uint32{leaf.X, leaf.Y, leaf.Z}
			if c&1 != 0 {
				p[0] += h
			}
			if c&2 != 0 {
				p[1] += h
			}
			if c&4 != 0 {
				p[2] += h
			}
			key := uint64(p[0]) | uint64(p[1])<<21 | uint64(p[2])<<42
			for d := 0; d < 3; d++ {
				out[ei][c][d] = 2*prand(seed+uint64(d), key) - 1
			}
		}
	}
	return out
}

// relDiff returns ||a-b|| / ||b|| (collective).
func relDiff(a, b *la.Vec) float64 {
	d := a.Clone()
	d.AXPY(-1, b)
	nb := b.Norm2()
	if nb == 0 {
		return d.Norm2()
	}
	return d.Norm2() / nb
}

func TestMatrixFreeMatchesAssembled(t *testing.T) {
	for _, p := range []int{1, 3} {
		for _, level := range []uint8{1, 2, 3} {
			p, level := p, level
			sim.Run(p, func(r *sim.Rank) {
				seed := uint64(level)*64 + uint64(p)
				m := buildMesh(r, level, true) // adaptive: includes hanging nodes
				dom := fem.UnitDomain
				eta := randomViscosity(m, seed)
				force := randomForce(m, seed+17)
				bc := FreeSlip(dom.Box)

				mf := Assemble(m, dom, eta, force, bc, Options{})
				A, b := oracle(t, mf, eta, force)

				// Right-hand sides agree.
				if d := relDiff(mf.B, b); d > 1e-12 {
					t.Errorf("p=%d level=%d: rhs differs by %v", p, level, d)
				}

				// Applies agree on randomized input vectors.
				x := la.NewVec(mf.Layout)
				for i := range x.Data {
					g := uint64(mf.Layout.Start() + int64(i))
					x.Data[i] = 2*prand(seed+99, g) - 1
				}
				y1 := la.NewVec(mf.Layout)
				y2 := la.NewVec(mf.Layout)
				A.Apply(x, y1)
				mf.Op.Apply(x, y2)
				if d := relDiff(y2, y1); d > 1e-10 {
					t.Errorf("p=%d level=%d: apply differs by %v", p, level, d)
				}

				// The matrix-free operator stays symmetric.
				z := la.NewVec(mf.Layout)
				for i := range z.Data {
					g := uint64(mf.Layout.Start() + int64(i))
					z.Data[i] = 2*prand(seed+7, g) - 1
				}
				az := la.NewVec(mf.Layout)
				mf.Op.Apply(z, az)
				d1, d2 := y2.Dot(z), az.Dot(x)
				if scale := math.Max(math.Abs(d1), 1); math.Abs(d1-d2)/scale > 1e-10 {
					t.Errorf("p=%d level=%d: matrix-free operator asymmetric: %v vs %v",
						p, level, d1, d2)
				}
			})
		}
	}
}

// The matrix-free solve must reach the oracle's solution: MINRES on the
// assembled CSR and its right-hand side with the solver's preconditioner.
func TestMatrixFreeSolveMatchesAssembled(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		m := buildMesh(r, 2, true)
		dom := fem.UnitDomain
		eta := randomViscosity(m, 5)
		force := randomForce(m, 11)
		bc := FreeSlip(dom.Box)

		mf := Assemble(m, dom, eta, force, bc, Options{})
		A, b := oracle(t, mf, eta, force)
		xa := la.NewVec(mf.Layout)
		ra := krylov.MINRES(A, mf.Precond(), b, xa, 1e-9, 3000)
		if !ra.Converged {
			t.Fatalf("assembled solve failed: %v", ra.Residual)
		}

		xm, rm := mf.Solve(1e-9, 3000)
		if !rm.Converged {
			t.Fatalf("matrix-free solve failed: %v", rm.Residual)
		}
		if d := relDiff(xm, xa); d > 1e-5 {
			t.Errorf("solutions differ by %v", d)
		}
		// Same operator and preconditioner: iteration counts match closely.
		if di := rm.Iterations - ra.Iterations; di > 3 || di < -3 {
			t.Errorf("iteration counts diverge: %d vs %d", rm.Iterations, ra.Iterations)
		}
	})
}
