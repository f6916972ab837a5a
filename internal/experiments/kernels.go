package experiments

// The per-kernel throughput study behind the Taylor-Hood element
// kernels: at the element level, the O(k^6) dense Q2 reference apply
// against the O(k^4) tensor-product sum factorization (the speedup the
// method promises, and the regression gate BENCH_kernels.json pins);
// at the operator level, the full matrix-free coupled apply for the
// Q1-Q1 and Q2-Q1 pairs on the same mesh, in dofs per second.

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"time"

	"rhea/internal/fem"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// KernelCase is one measured kernel or operator apply.
type KernelCase struct {
	Kernel string `json:"kernel"` // "q2-naive", "q2-sumfactor", "op-q1", "op-q2"
	// Element-level cases: one element apply; operator-level cases: one
	// global matrix-free apply over Elements elements.
	Elements int64 `json:"elements"`
	Dofs     int64 `json:"dofs"`
	// SecondsPerApply is wall time of one apply (element or operator).
	SecondsPerApply float64 `json:"seconds_per_apply"`
	ElemPerS        float64 `json:"elem_per_s"`
	DofPerS         float64 `json:"dof_per_s"`
	// SpeedupVsNaive is the per-dof throughput ratio against the dense
	// Q2 reference kernel (element-level cases only).
	SpeedupVsNaive float64 `json:"speedup_vs_naive,omitempty"`
}

// benchElemKernel times fn over n applies and returns seconds per apply.
func benchElemKernel(n int, fn func()) float64 {
	fn() // warm
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t0).Seconds() / float64(n)
}

// FigKernels measures the Q2 element-kernel sum-factorization speedup
// and the end-to-end matrix-free operator throughput of both element
// orders, returning the printable table and the JSON cases.
func FigKernels(scale Scale) (*Table, []KernelCase) {
	lvl := uint8(3)
	elemApplies := 20000
	opApplies := 20
	if scale == Full {
		lvl = 4
		elemApplies = 100000
		opApplies = 60
	}

	// Element level: one Q2 element, dense reference vs sum-factorized.
	h := [3]float64{0.25, 0.25, 0.25}
	naive := fem.NewQ2StokesKernels(h)
	sf := fem.NewSumFactorKernels(h)
	var scratch fem.SFScratch
	rng := rand.New(rand.NewSource(1))
	var xe, ye [108]float64
	for i := range xe {
		xe[i] = rng.NormFloat64()
	}
	tNaive := benchElemKernel(elemApplies, func() { naive.Apply(1.3, &xe, &ye) })
	tSF := benchElemKernel(elemApplies, func() { sf.Apply(1.3, &xe, &ye, &scratch) })

	cases := []KernelCase{
		{Kernel: "q2-naive", Elements: 1, Dofs: 108,
			SecondsPerApply: tNaive, ElemPerS: 1 / tNaive, DofPerS: 108 / tNaive,
			SpeedupVsNaive: 1},
		{Kernel: "q2-sumfactor", Elements: 1, Dofs: 108,
			SecondsPerApply: tSF, ElemPerS: 1 / tSF, DofPerS: 108 / tSF,
			SpeedupVsNaive: tNaive / tSF},
	}

	// Operator level: the full coupled matrix-free apply on one uniform
	// mesh, Q1-Q1 vs Q2-Q1 (each over its own dof layout).
	var opQ1, opQ2 KernelCase
	sim.Run(2, func(r *sim.Rank) {
		tr := newBox(r, lvl)
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		eta := make([]float64, len(m.Leaves))
		for ei := range eta {
			eta[ei] = 1
		}
		bc := stokes.FreeSlip(dom.Box)
		ne := tr.NumGlobal() // collective

		time1 := func(s *stokes.Solver) float64 {
			x := la.NewVec(s.Layout)
			for i := range x.Data {
				x.Data[i] = math.Sin(1.3 * float64(s.Layout.Start()+int64(i)))
			}
			y := la.NewVec(s.Layout)
			s.Op.Apply(x, y) // warm plans and caches
			c := &krylov.Counted{Op: s.Op}
			r.Barrier()
			for k := 0; k < opApplies; k++ {
				c.Apply(x, y)
			}
			r.Barrier()
			return c.Seconds / float64(c.Applies)
		}

		s1 := stokes.Assemble(m, dom, eta, nil, bc, stokes.Options{MatrixFree: true})
		t1 := time1(s1)

		m.Q2 = mesh.ExtractQ2(tr, m)
		s2 := stokes.Setup(m, dom, bc, stokes.Options{
			MatrixFree: true, Precond: stokes.PrecondGMG, Order: 2,
		}).Update(eta, nil)
		t2 := time1(s2)

		if r.ID() == 0 {
			d1 := int64(4 * m.NGlobal)
			d2 := int64(4 * m.Q2.NGlobal)
			opQ1 = KernelCase{Kernel: "op-q1", Elements: ne, Dofs: d1,
				SecondsPerApply: t1, ElemPerS: float64(ne) / t1, DofPerS: float64(d1) / t1}
			opQ2 = KernelCase{Kernel: "op-q2", Elements: ne, Dofs: d2,
				SecondsPerApply: t2, ElemPerS: float64(ne) / t2, DofPerS: float64(d2) / t2}
		}
	})
	cases = append(cases, opQ1, opQ2)

	t := &Table{
		Title: "Q2 kernel and operator throughput (sum factorization vs dense reference)",
		Header: []string{"kernel", "#elem", "#dof", "apply us",
			"Melem/s", "Mdof/s", "speedup vs naive"},
		Notes: []string{
			"element rows: one Q2 element apply, single core; operator rows: full matrix-free coupled apply, 2 ranks",
			"speedup is per-dof throughput against the dense O(k^6) Q2 reference kernel",
		},
	}
	for _, c := range cases {
		sp := "-"
		if c.SpeedupVsNaive > 0 {
			sp = f2(c.SpeedupVsNaive)
		}
		t.Rows = append(t.Rows, []string{
			c.Kernel, i64(c.Elements), i64(c.Dofs),
			f3(c.SecondsPerApply * 1e6),
			f3(c.ElemPerS / 1e6), f3(c.DofPerS / 1e6), sp})
	}
	return t, cases
}

// KernelsJSON is the BENCH_kernels.json schema.
type KernelsJSON struct {
	Generated string       `json:"generated"`
	Cases     []KernelCase `json:"cases"`
}

// WriteKernelsJSON writes the kernel throughput record CI regenerates.
func WriteKernelsJSON(path string, cases []KernelCase) error {
	rec := KernelsJSON{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Cases:     cases,
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
