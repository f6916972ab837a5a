package main

// Ablation benchmarks for the design decisions called out in
// docs/ARCHITECTURE.md: the linear (sorted-array) octree versus a
// hash-set octree, the locality of space-filling-curve partitioning
// versus random assignment, the block-AMG Stokes preconditioner versus
// plain Jacobi, and AMG setup reuse across time steps versus rebuilding
// every solve.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rhea/internal/amg"
	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// unitBox is the one-tree connectivity of the unit cube.
var unitBox = forest.BrickConnectivity(1, 1, 1)

// buildAdaptedLeaves returns a balanced adapted leaf set for lookups.
func buildAdaptedLeaves() []morton.Octant {
	var leaves []morton.Octant
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 3)
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 })
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Y == 0 })
		tr.Balance()
		for _, o := range tr.Leaves() {
			leaves = append(leaves, o.O)
		}
	})
	return leaves
}

// BenchmarkAblation_LinearOctreeLookup measures containment queries on
// the sorted linear octree (binary search over Morton keys).
func BenchmarkAblation_LinearOctreeLookup(b *testing.B) {
	var tree *forest.Forest
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 3)
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 })
		tr.Balance()
		tree = tr
	})
	leaves := tree.Leaves()
	rng := rand.New(rand.NewSource(1))
	queries := make([]forest.Octant, 4096)
	for i := range queries {
		l := leaves[rng.Intn(len(leaves))]
		queries[i] = forest.Octant{Tree: l.Tree, O: l.O.FirstDescendant(morton.MaxLevel)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tree.FindContaining(queries[i%len(queries)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkAblation_HashOctreeLookup is the alternative design: leaves in
// a hash set, containment resolved by walking the ancestor chain. The
// linear octree wins on cache behaviour and also provides ordered
// traversal for free, which the hash design cannot.
func BenchmarkAblation_HashOctreeLookup(b *testing.B) {
	leaves := buildAdaptedLeaves()
	set := make(map[morton.Octant]struct{}, len(leaves))
	for _, o := range leaves {
		set[o] = struct{}{}
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([]morton.Octant, 4096)
	for i := range queries {
		l := leaves[rng.Intn(len(leaves))]
		queries[i] = l.FirstDescendant(morton.MaxLevel)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		found := false
		for lvl := int(q.Level); lvl >= 0; lvl-- {
			if _, ok := set[q.Ancestor(uint8(lvl))]; ok {
				found = true
				break
			}
		}
		if !found {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkAblation_PartitionLocality compares the number of mesh nodes
// shared between ranks under SFC partitioning versus random element
// assignment — the communication surface the space-filling curve is
// designed to minimize.
func BenchmarkAblation_PartitionLocality(b *testing.B) {
	leaves := buildAdaptedLeaves()
	const p = 8
	countShared := func(owner func(i int) int) int {
		// A node is shared if elements of different ranks touch it.
		nodeRank := map[[3]uint32]int{}
		shared := map[[3]uint32]bool{}
		for i, o := range leaves {
			rk := owner(i)
			h := o.Len()
			for c := 0; c < 8; c++ {
				pos := [3]uint32{o.X, o.Y, o.Z}
				if c&1 != 0 {
					pos[0] += h
				}
				if c&2 != 0 {
					pos[1] += h
				}
				if c&4 != 0 {
					pos[2] += h
				}
				if prev, ok := nodeRank[pos]; ok && prev != rk {
					shared[pos] = true
				}
				nodeRank[pos] = rk
			}
		}
		return len(shared)
	}
	rng := rand.New(rand.NewSource(2))
	var sfc, random int
	for i := 0; i < b.N; i++ {
		sfc = countShared(func(i int) int { return i * p / len(leaves) })
		random = countShared(func(i int) int { return rng.Intn(p) })
	}
	b.ReportMetric(float64(sfc), "sharedNodes/sfc")
	b.ReportMetric(float64(random), "sharedNodes/random")
	if sfc >= random {
		b.Errorf("SFC partition (%d shared) not better than random (%d)", sfc, random)
	}
}

// BenchmarkAblation_PrecondChoice compares MINRES iteration counts for
// the paper's block-diagonal AMG + weighted-mass preconditioner against
// plain Jacobi on the same variable-viscosity Stokes system.
func BenchmarkAblation_PrecondChoice(b *testing.B) {
	var itersAMG, itersJacobi int
	for i := 0; i < b.N; i++ {
		sim.Run(1, func(r *sim.Rank) {
			tr := forest.New(r, unitBox, 3)
			m := mesh.Extract(tr, nil)
			dom := fem.UnitDomain
			eta := make([]float64, len(m.Leaves))
			for ei, leaf := range m.Leaves {
				if float64(leaf.Z)/float64(morton.RootLen) > 0.5 {
					eta[ei] = 1e3
				} else {
					eta[ei] = 1
				}
			}
			force := make([][8][3]float64, len(m.Leaves))
			for ei := range force {
				x := dom.ElemCenter(m.Leaves[ei])
				for c := 0; c < 8; c++ {
					force[ei][c] = [3]float64{0, 0, math.Sin(math.Pi * x[0])}
				}
			}
			sys := stokes.Assemble(m, dom, eta, force, stokes.FreeSlip(dom.Box), stokes.Options{})
			_, res := sys.Solve(1e-8, 3000)
			itersAMG = res.Iterations
			x2 := la.NewVec(sys.Layout)
			res2 := krylov.MINRES(sys.A, absJacobi(sys.A), sys.B, x2, 1e-8, 3000)
			itersJacobi = res2.Iterations
		})
	}
	b.ReportMetric(float64(itersAMG), "iters/blockAMG")
	b.ReportMetric(float64(itersJacobi), "iters/jacobi")
	if i := itersAMG; i >= itersJacobi {
		fmt.Printf("warning: block preconditioner (%d) not beating Jacobi (%d)\n", i, itersJacobi)
	}
}

// absJacobi builds |diag|^-1 scaling, the SPD variant of Jacobi usable
// inside MINRES on an indefinite system.
func absJacobi(A *la.Mat) krylov.Operator {
	d := A.Diag()
	inv := la.NewVec(d.Layout)
	for i, v := range d.Data {
		a := math.Abs(v)
		if a < 1e-30 {
			a = 1
		}
		inv.Data[i] = 1 / a
	}
	return krylov.DiagOp(inv)
}

// BenchmarkAblation_AMGSetupReuse compares rebuilding the AMG hierarchy
// every application (setup-per-solve) against the paper's protocol of one
// setup per adaptation reused over 16 steps.
func BenchmarkAblation_AMGSetupReuse(b *testing.B) {
	var A *la.CSR
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 3)
		m := mesh.Extract(tr, nil)
		mat, _, _ := fem.AssembleScalar(m, fem.UnitDomain,
			func(ei int, h [3]float64) [8][8]float64 { return fem.StiffnessBrick(h, 1) },
			nil, func(x [3]float64) (float64, bool) { return 0, x[2] == 0 || x[2] == 1 })
		A = mat.LocalCSR()
	})
	rhs := make([]float64, A.N)
	x := make([]float64, A.N)
	for i := range rhs {
		rhs[i] = float64(i % 7)
	}
	b.Run("reuse", func(b *testing.B) {
		h := amg.Setup(A, amg.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for c := 0; c < 16; c++ {
				h.Cycle(rhs, x)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c := 0; c < 16; c++ {
				h := amg.Setup(A, amg.Options{})
				h.Cycle(rhs, x)
			}
		}
	})
}
