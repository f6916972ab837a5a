package experiments

import (
	"fmt"
	"math"
	"time"

	"rhea/internal/amg"
	"rhea/internal/dg"
	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/perfmodel"
	"rhea/internal/rhea"
	"rhea/internal/sim"
)

// Fig8MantleWeakScaling reproduces Fig 8: the per-time-step runtime
// breakdown of the full mantle convection code (AMR, explicit transport,
// MINRES, AMG setup/solve) under weak scaling. The Stokes solve dominates
// and the AMG components grow with core count while AMR stays negligible.
func Fig8MantleWeakScaling(scale Scale) *Table {
	ranks := []int{1, 2, 4}
	perRank := int64(250)
	if scale == Full {
		ranks = []int{1, 2, 4, 8}
		perRank = 1500
	}
	t := &Table{
		Title: "Fig 8: full mantle convection weak scaling, runtime per cycle (s)",
		Header: []string{"#cores", "#elem", "AMR", "TimeIntegration", "StokesSetup+Update",
			"MINRES+AMGSolve", "Stokes share"},
		Notes: []string{
			"paper: Stokes solve >95% of runtime; AMR negligible; AMG grows with cores",
		},
	}
	var lastAssemble, lastMinres float64
	var lastElems int64
	for _, p := range ranks {
		var row []string
		sim.Run(p, func(r *sim.Rank) {
			cfg := blobCfg(3, 6, perRank*int64(p))
			cfg.AdaptEvery = 4
			s := rhea.New(r, cfg)
			s.Times = rhea.Timings{} // discard setup costs
			s.RunCycle()
			n := s.Forest.NumGlobal() // collective
			if r.ID() == 0 {
				tt := s.Times
				stokes := tt.StokesBuild() + tt.MINRES
				total := tt.AMRTotal() + tt.SolveTotal()
				row = []string{iN(p), i64(n), f3(tt.AMRTotal()),
					f3(tt.TimeIntegrate), f3(tt.StokesBuild()), f3(tt.MINRES),
					pct(stokes / total)}
				lastAssemble, lastMinres = tt.StokesBuild(), tt.MINRES
				lastElems = n
			}
		})
		t.Rows = append(t.Rows, row)
	}
	// Modeled continuation: per-rank work held at the last measured run,
	// with the p-dependent AMG communication added from the machine model
	// (this is the growth the paper observes in the gray/yellow bars).
	base := perfmodel.AMGWork(lastElems/int64(ranks[len(ranks)-1]), 160, 200)
	for _, p := range []int{1024, 16384} {
		extra := perfmodel.Ranger.Time(commOnly(base), p)
		t.Rows = append(t.Rows, []string{iN(p), "(modeled)", "~", "~",
			f3(lastAssemble + 0.1*extra), f3(lastMinres + extra), "~"})
	}
	return t
}

// Fig9AMGPoissonVsLaplace reproduces Fig 9: total time for one AMG setup
// plus 160 V-cycles, comparing the variable-viscosity octree-FEM Poisson
// operator against the 7-point Laplacian on a regular grid.
func Fig9AMGPoissonVsLaplace(scale Scale) *Table {
	n1d := 16
	if scale == Full {
		n1d = 32
	}
	t := &Table{
		Title:  "Fig 9: AMG setup + 160 V-cycles, variable-viscosity octree FEM vs 7-point Laplace",
		Header: []string{"#cores", "FEM Poisson (s)", "7-pt Laplace (s)", "source"},
		Notes: []string{
			"paper: Laplace is cheaper but scales the same; both grow with core count",
		},
	}
	// Measured, serial per-rank hierarchies.
	var femTime, lapTime float64
	var femN int
	sim.Run(1, func(r *sim.Rank) {
		tr := newBox(r, uint8(math.Round(math.Log2(float64(n1d)))))
		tr.Refine(func(o forest.Octant) bool { return o.O.X == 0 && o.O.Z == 0 })
		tr.Balance()
		m := mesh.Extract(tr, nil)
		eta := make([]float64, len(m.Leaves))
		for ei, leaf := range m.Leaves {
			zn := float64(leaf.Z) / float64(morton.RootLen)
			eta[ei] = 1.0
			if zn > 0.77 {
				eta[ei] = 1e4
			}
		}
		bc := func(x [3]float64) (float64, bool) {
			if x[2] == 0 || x[2] == 1 {
				return 0, true
			}
			return 0, false
		}
		A, _, _ := fem.AssembleScalar(m, fem.UnitDomain,
			func(ei int, h [3]float64) [8][8]float64 { return fem.StiffnessBrick(h, eta[ei]) },
			nil, bc)
		csr := A.LocalCSR()
		femN = csr.N
		t0 := time.Now()
		h := amg.Setup(csr, amg.Options{})
		b := make([]float64, csr.N)
		x := make([]float64, csr.N)
		for i := range b {
			b[i] = float64(i % 5)
		}
		for c := 0; c < 160; c++ {
			h.Cycle(b, x)
		}
		femTime = time.Since(t0).Seconds()
	})
	lap := sevenPointLaplace(n1d)
	t0 := time.Now()
	h := amg.Setup(lap, amg.Options{})
	b := make([]float64, lap.N)
	x := make([]float64, lap.N)
	for i := range b {
		b[i] = float64(i % 5)
	}
	for c := 0; c < 160; c++ {
		h.Cycle(b, x)
	}
	lapTime = time.Since(t0).Seconds()
	t.Rows = append(t.Rows, []string{"1", f3(femTime), f3(lapTime), "measured"})

	// Modeled growth with core count (per-rank size held constant).
	for _, p := range []int{64, 1024, 16384} {
		wf := perfmodel.AMGWork(int64(femN), 160, 300)
		wl := perfmodel.AMGWork(int64(lap.N), 160, 120)
		t.Rows = append(t.Rows, []string{iN(p),
			f3(femTime + perfmodel.Ranger.Time(commOnly(wf), p)),
			f3(lapTime + perfmodel.Ranger.Time(commOnly(wl), p)), "modeled"})
	}
	return t
}

// commOnly strips compute from a ledger so only the p-dependent part is
// added to a measured serial time.
func commOnly(w perfmodel.RankWork) perfmodel.RankWork {
	w.Flops = 0
	return w
}

// sevenPointLaplace builds the regular-grid stencil operator of Fig 9.
func sevenPointLaplace(n int) *la.CSR {
	N := n * n * n
	id := func(i, j, k int) int { return i + n*(j+n*k) }
	c := &la.CSR{N: N, RowPtr: make([]int32, N+1)}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				row := id(i, j, k)
				add := func(col int, v float64) {
					c.ColIdx = append(c.ColIdx, int32(col))
					c.Vals = append(c.Vals, v)
				}
				if i > 0 {
					add(id(i-1, j, k), -1)
				}
				if j > 0 {
					add(id(i, j-1, k), -1)
				}
				if k > 0 {
					add(id(i, j, k-1), -1)
				}
				add(row, 6)
				if i < n-1 {
					add(id(i+1, j, k), -1)
				}
				if j < n-1 {
					add(id(i, j+1, k), -1)
				}
				if k < n-1 {
					add(id(i, j, k+1), -1)
				}
				c.RowPtr[row+1] = int32(len(c.Vals))
			}
		}
	}
	return c
}

// Fig10AMRBreakdownTable reproduces Fig 10: per-function AMR timings of
// the full mantle code versus the solve time, with AMR under 1%.
func Fig10AMRBreakdownTable(scale Scale) *Table {
	ranks := []int{1, 2, 4}
	perRank := int64(250)
	if scale == Full {
		ranks = []int{1, 2, 4, 8, 16}
		perRank = 1200
	}
	t := &Table{
		Title: "Fig 10: AMR timing breakdown (seconds per adaptation step) vs solve time",
		Header: []string{"#cores", "NewTree", "solve", "Coars+Refine", "Balance",
			"Partition", "Extract", "Interp+Transfer", "MarkElem", "AMR/solve"},
		Notes: []string{"paper: AMR under 1% of solve time at every core count"},
	}
	for _, p := range ranks {
		var row []string
		sim.Run(p, func(r *sim.Rank) {
			cfg := blobCfg(3, 6, perRank*int64(p))
			cfg.AdaptEvery = 4
			s := rhea.New(r, cfg)
			newTree := s.Times.NewTree
			s.Times = rhea.Timings{}
			s.RunCycle()
			if r.ID() == 0 {
				tt := s.Times
				solve := tt.SolveTotal()
				amrT := tt.AMRTotal()
				row = []string{iN(p), f3(newTree), f3(solve), f3(tt.CoarsenRefine),
					f3(tt.BalanceTree), f3(tt.PartitionTree), f3(tt.ExtractMesh),
					f3(tt.InterpolateFld + tt.TransferFld), f3(tt.MarkElements),
					pct(amrT / solve)}
			}
		})
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Sec6YieldingStats reproduces the §VI accounting: the yielding-viscosity
// mantle run, its element count across levels, and the reduction factor
// relative to uniform meshes at the finest levels.
func Sec6YieldingStats(scale Scale) *Table {
	base, maxLvl := uint8(3), uint8(7)
	target := int64(5000)
	cycles := 3
	if scale == Full {
		base, maxLvl, target, cycles = 4, 9, 60000, 4
	}
	t := &Table{
		Title:  "Sec VI: yielding-viscosity convection, AMR vs uniform element counts",
		Header: []string{"quantity", "value"},
		Notes: []string{
			"paper: 19.2M elements at 14 levels vs 34B uniform at level 13 (>1000x reduction), ~1.5 km finest",
		},
	}
	sim.Run(4, func(r *sim.Rank) {
		cfg := blobCfg(base, maxLvl, target)
		cfg.Dom = fem.Domain{Box: [3]float64{8, 4, 1}}
		cfg.Visc = rhea.YieldingLaw(1e3)
		cfg.Ra = 1e6
		cfg.Picard = 2
		cfg.AdaptEvery = 4
		cfg.InitialTemp = func(x [3]float64) float64 {
			T := 1 - x[2]
			// Sharp hot anomalies plus a cold downwelling sheet to drive
			// deep, localized refinement (the paper's yielding scenario).
			T += 0.2 * math.Exp(-((x[0]-2)*(x[0]-2)+(x[1]-2)*(x[1]-2)+(x[2]-0.25)*(x[2]-0.25))/0.01)
			T += 0.2 * math.Exp(-((x[0]-6)*(x[0]-6)+(x[1]-2)*(x[1]-2)+(x[2]-0.3)*(x[2]-0.3))/0.02)
			T -= 0.2 * math.Exp(-((x[0]-4)*(x[0]-4)/0.3 + (x[2]-0.9)*(x[2]-0.9)/0.003))
			return T
		}
		s := rhea.New(r, cfg)
		for c := 0; c < cycles; c++ {
			s.RunCycle()
		}
		n := s.Forest.NumGlobal()        // collective
		lo, hi := s.Forest.MinMaxLevel() // collective
		// Realized viscosity extremes (collective).
		etas := s.ElementViscosity()
		loEta, hiEta := math.Inf(1), math.Inf(-1)
		for _, e := range etas {
			loEta = math.Min(loEta, e)
			hiEta = math.Max(hiEta, e)
		}
		gLoEta := r.Allreduce(loEta, sim.OpMin)
		gHiEta := r.Allreduce(hiEta, sim.OpMax)
		if r.ID() == 0 {
			uniform := int64(1) << (3 * int64(hi))
			// Mantle depth 2900 km spans the unit z of the domain.
			resKm := 2900.0 / float64(uint32(1)<<hi)
			t.Rows = append(t.Rows,
				[]string{"elements (AMR)", i64(n)},
				[]string{"octree levels", fmt.Sprintf("%d..%d (%d levels)", lo, hi, hi-lo+1)},
				[]string{"uniform elements at finest level", i64(uniform)},
				[]string{"reduction factor", f2(float64(uniform) / float64(n))},
				[]string{"finest resolution", fmt.Sprintf("%.1f km", resKm)},
				[]string{"viscosity range",
					fmt.Sprintf("%.2e .. %.2e (%.0ex)", gLoEta, gHiEta, gHiEta/gLoEta)},
			)
		}
	})
	return t
}

// Fig12SphereAdvection reproduces Fig 12: DG advection of a front on the
// 24-tree cubed-sphere forest with dynamic adaptation and drastic
// repartitioning between steps.
func Fig12SphereAdvection(scale Scale) *Table {
	p := 4
	order := 3
	cyc := 4
	if scale == Full {
		order, cyc = 4, 8
	}
	t := &Table{
		Title:  "Fig 12: cubed-sphere DG advection with forest-of-octrees AMR",
		Header: []string{"cycle", "elements", "max|T|", "moved on repartition"},
		Notes: []string{
			"paper: 24-tree cubed sphere, mesh follows the front, partition changes drastically",
		},
	}
	conn := forest.CubedSphere(2)
	R := float64(morton.RootLen)
	vel := func(ff *forest.Forest, o forest.Octant) [3]float64 {
		return [3]float64{0.4 * R, 0.15 * R, 0}
	}
	sim.Run(p, func(r *sim.Rank) {
		f := forest.New(r, conn, 2)
		adv := dg.NewAdvection(f, order, vel, func(o forest.Octant, x [3]float64) float64 {
			if o.Tree != 0 {
				return 0
			}
			d2 := (x[0]-0.5*R)*(x[0]-0.5*R) + (x[1]-0.5*R)*(x[1]-0.5*R)
			return math.Exp(-d2 / (0.02 * R * R))
		})
		for c := 1; c <= cyc; c++ {
			dt := adv.StableDt(0.4)
			for s := 0; s < 5; s++ {
				adv.Step(dt)
			}
			n, moved := adv.AdaptOnce(0.1, 0.02, 4, vel)
			maxAbs := adv.MaxAbs() // collective
			if r.ID() == 0 {
				t.Rows = append(t.Rows, []string{iN(c), i64(n), f3(maxAbs), i64(moved)})
			}
		}
	})
	return t
}

// Sec7MatrixVsTensor reproduces the §VII kernel study: time per element
// for the matrix-based O(p^6) versus tensor-product O(p^4) derivative
// application across polynomial orders, locating the crossover.
func Sec7MatrixVsTensor(scale Scale) *Table {
	orders := []int{1, 2, 4, 6, 8}
	reps := 200
	if scale == Full {
		reps = 2000
	}
	t := &Table{
		Title: "Sec VII: matrix-based vs tensor-product element derivative kernels",
		Header: []string{"p", "tensor ns/elem", "matrix ns/elem", "tensor flops", "matrix flops",
			"tensor GF/s", "matrix GF/s", "faster"},
		Notes: []string{
			"paper (Ranger+GotoBLAS): crossover between p=2 and p=4; at p=6 tensor does 20x fewer flops and runs 2x faster",
			"paper sustained rates: 145 TF at 32K cores (p=8 matrix) = ~4.4 GF/s/core; the matrix kernel sustains the higher per-element rate here too",
		},
	}
	for _, p := range orders {
		k := dg.NewKernels(p)
		n3 := k.N * k.N * k.N
		u := make([]float64, n3)
		for i := range u {
			u[i] = math.Sin(float64(i))
		}
		out := make([]float64, n3)
		t0 := time.Now()
		for rep := 0; rep < reps; rep++ {
			for d := 0; d < 3; d++ {
				k.DerivTensor(u, out, d)
			}
		}
		tten := time.Since(t0).Seconds() / float64(reps) * 1e9
		t0 = time.Now()
		repsM := reps
		if p >= 6 {
			repsM = reps / 10
			if repsM == 0 {
				repsM = 1
			}
		}
		for rep := 0; rep < repsM; rep++ {
			for d := 0; d < 3; d++ {
				k.DerivMatrix(u, out, d)
			}
		}
		tmat := time.Since(t0).Seconds() / float64(repsM) * 1e9
		ft, fm := k.FlopsPerElement()
		faster := "tensor"
		if tmat < tten {
			faster = "matrix"
		}
		gfT := float64(ft) / tten // ns -> GF/s
		gfM := float64(fm) / tmat
		t.Rows = append(t.Rows, []string{iN(p), fmt.Sprintf("%.0f", tten),
			fmt.Sprintf("%.0f", tmat), i64(ft), i64(fm),
			f2(gfT), f2(gfM), faster})
	}
	return t
}

// Sec7DGWeakScaling reproduces the §VII DG scalability claim: parallel
// efficiency of adaptive DG advection under weak scaling.
func Sec7DGWeakScaling(scale Scale) *Table {
	ranks := []int{1, 2, 4}
	order := 4
	if scale == Full {
		ranks = []int{1, 2, 4, 8}
	}
	t := &Table{
		Title:  "Sec VII: DG advection weak scaling (adapting every cycle)",
		Header: []string{"#cores", "elements", "time (s)", "efficiency", "source"},
		Notes:  []string{"paper: p=4 at 90% parallel efficiency on 16,384 vs 64 cores"},
	}
	conn := forest.BrickConnectivity(2, 1, 1)
	R := float64(morton.RootLen)
	vel := func(ff *forest.Forest, o forest.Octant) [3]float64 {
		return [3]float64{0.5 * R, 0, 0}
	}
	var samples []perfmodel.Sample
	base := 0.0
	for _, p := range ranks {
		lvl := uint8(1)
		if p >= 2 {
			lvl = 2
		}
		var wall float64
		var elems int64
		sim.Run(p, func(r *sim.Rank) {
			f := forest.New(r, conn, lvl)
			adv := dg.NewAdvection(f, order, vel, func(o forest.Octant, x [3]float64) float64 {
				return math.Exp(-(x[0] - 0.3*R) * (x[0] - 0.3*R) / (0.01 * R * R))
			})
			r.Barrier()
			t0 := time.Now()
			dt := adv.StableDt(0.4)
			for s := 0; s < 10; s++ {
				adv.Step(dt)
			}
			adv.AdaptOnce(0.2, 0.02, lvl+1, vel)
			r.Barrier()
			ne := f.NumGlobal() // collective
			if r.ID() == 0 {
				wall = time.Since(t0).Seconds()
				elems = ne
			}
		})
		perElem := wall / float64(elems) * float64(p)
		if base == 0 {
			base = perElem
		}
		t.Rows = append(t.Rows, []string{iN(p), i64(elems), f3(wall), f3(base / perElem), "measured"})
		samples = append(samples, perfmodel.Sample{N: elems, P: p, T: wall})
	}
	fit := perfmodel.FitSamples(samples)
	g := samples[len(samples)-1].N / int64(ranks[len(ranks)-1])
	for _, p := range []int{64, 16384} {
		t.Rows = append(t.Rows, []string{iN(p), i64(g * int64(p)), "-", f3(fit.Efficiency(g, p)), "modeled"})
	}
	return t
}
