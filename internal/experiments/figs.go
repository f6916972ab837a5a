package experiments

import (
	"fmt"
	"math"
	"sync"
	"time"

	"rhea/internal/fem"
	"rhea/internal/perfmodel"
	"rhea/internal/rhea"
	"rhea/internal/sim"
)

// Scale selects experiment sizes. Small keeps everything under a few
// seconds for tests and benchmarks; Full is for cmd/alpsbench runs.
type Scale int

const (
	Small Scale = iota
	Full
)

// blobCfg is the shared mantle-convection configuration.
func blobCfg(base, maxLvl uint8, target int64) rhea.Config {
	return rhea.Config{
		Dom: fem.UnitDomain,
		Ra:  1e5,
		InitialTemp: func(x [3]float64) float64 {
			r2 := (x[0]-0.5)*(x[0]-0.5) + (x[1]-0.5)*(x[1]-0.5) + (x[2]-0.2)*(x[2]-0.2)
			return (1 - x[2]) + 0.25*math.Exp(-r2/0.02)
		},
		Visc:        rhea.TemperatureDependent(1, 4.6), // 100x contrast
		BaseLevel:   base,
		MinLevel:    base - 1,
		MaxLevel:    maxLvl,
		TargetElems: target,
		Picard:      1,
		MinresTol:   1e-6,
		MinresMax:   600,
		InitAdapt:   1,
	}
}

// Fig2StokesWeakScaling reproduces the paper's Fig 2 table: MINRES
// iteration counts for the variable-viscosity Stokes solver under weak
// scaling (fixed elements per core). The paper runs 1 to 8192 cores with
// ~65K elements/core and sees 57 to 68 iterations; the reproduction runs
// scaled-down rank counts and checks the same flatness.
func Fig2StokesWeakScaling(scale Scale) *Table {
	ranks := []int{1, 2, 4, 8}
	basePerRank := int64(300)
	if scale == Full {
		ranks = []int{1, 2, 4, 8, 16}
		basePerRank = 2000
	}
	t := &Table{
		Title:  "Fig 2: weak scalability of variable-viscosity Stokes (MINRES iterations)",
		Header: []string{"#cores", "#elem", "#elem/core", "#dof", "MINRES #iterations"},
		Notes: []string{
			"paper: 1..8192 cores, 67K..539M elements, iterations 57..68 (flat)",
			"reproduction: goroutine ranks, same elements/core, same preconditioner",
		},
	}
	for _, p := range ranks {
		target := basePerRank * int64(p)
		var row []string
		sim.Run(p, func(r *sim.Rank) {
			cfg := blobCfg(3, 6, target)
			s := rhea.New(r, cfg)
			res := s.SolveStokes()
			n := s.Forest.NumGlobal() // collective: all ranks must call
			if r.ID() == 0 {
				dof := 4 * s.Mesh.NGlobal
				row = []string{iN(p), i64(n), i64(n / int64(p)), i64(dof), iN(res.Iterations)}
			}
		})
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig5AdaptationExtent reproduces Fig 5: per adaptation step, the number
// of elements coarsened, refined, added by BalanceTree, and unchanged
// (left plot), plus the distribution of elements over octree levels for
// selected steps (right plot).
func Fig5AdaptationExtent(scale Scale) (*Table, *Table) {
	p := 4
	base, maxLvl := uint8(3), uint8(6)
	target := int64(3000)
	steps := 8
	if scale == Full {
		base, maxLvl, target, steps = 4, 8, 30000, 16
	}
	left := &Table{
		Title:  "Fig 5 (left): elements coarsened/refined/balance-added/unchanged per adaptation step",
		Header: []string{"step", "coarsened", "refined", "balance-added", "unchanged", "total"},
		Notes:  []string{"paper: ~half of all elements coarsened or refined each step; total ~constant"},
	}
	right := &Table{
		Title:  "Fig 5 (right): elements per octree level at selected steps",
		Header: []string{"step", "level:count ..."},
		Notes:  []string{"paper: meshes span ~10 levels by step 8"},
	}
	var mu sync.Mutex
	sim.Run(p, func(r *sim.Rank) {
		s := newTransportSim(r, base, base-1, maxLvl, target)
		for step := 1; step <= steps; step++ {
			s.step(6)
			res := s.adapt()
			if r.ID() == 0 {
				mu.Lock()
				left.Rows = append(left.Rows, []string{
					iN(step), i64(res.Coarsened), i64(res.Refined),
					i64(res.BalanceAdded), i64(res.Unchanged), i64(res.ElementsNow)})
				if step == 1 || step == steps/2 || step == steps {
					lv := ""
					for l, c := range res.LevelCounts {
						if c > 0 {
							lv += fmt.Sprintf("%d:%d ", l, c)
						}
					}
					right.Rows = append(right.Rows, []string{iN(step), lv})
				}
				mu.Unlock()
			}
		}
	})
	return left, right
}

// Fig6StrongScaling reproduces Fig 6: fixed-size speedups for several
// problem sizes. Wall-clock is measured at small goroutine-rank counts;
// the calibrated Ranger model extrapolates the same runs to the paper's
// core counts.
func Fig6StrongScaling(scale Scale) *Table {
	sizes := []int64{2000, 8000}
	measureRanks := []int{1, 2, 4, 8}
	if scale == Full {
		sizes = []int64{8000, 64000}
		measureRanks = []int{1, 2, 4, 8, 16}
	}
	t := &Table{
		Title:  "Fig 6: fixed-size (strong) scaling speedups",
		Header: []string{"#cores", "speedup(small)", "speedup(large)", "ideal"},
		Notes: []string{
			"paper: 366x at 512 cores (small), 101x at 32768/256 (large)",
			"measured at 1..8 goroutine ranks; extrapolated with the calibrated Ranger model",
		},
	}
	fits := make([]perfmodel.Fit, len(sizes))
	for si, n := range sizes {
		var samples []perfmodel.Sample
		for _, p := range measureRanks {
			var elems int64
			wall := 0.0
			sim.Run(p, func(r *sim.Rank) {
				s := newTransportSim(r, 3, 2, 6, n)
				r.Barrier()
				t0 := time.Now()
				for c := 0; c < 2; c++ {
					s.step(4)
					s.adapt()
				}
				r.Barrier()
				ne := s.tree.NumGlobal() // collective
				if r.ID() == 0 {
					wall = time.Since(t0).Seconds()
					elems = ne
				}
			})
			samples = append(samples, perfmodel.Sample{N: elems, P: p, T: wall})
		}
		fits[si] = perfmodel.FitSamples(samples)
	}
	paperCores := []int{1, 16, 256, 2048, 8192, 32768, 65536}
	for _, p := range paperCores {
		row := []string{iN(p)}
		for si, n := range sizes {
			row = append(row, f2(fits[si].Speedup(n*64, 1, p)))
		}
		row = append(row, iN(p))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// fig7StepsPerAdapt is the adaptation cadence of the paper's §V transport
// runs: the mesh is adapted every 32 time steps.
const fig7StepsPerAdapt = 32

// Fig7WeakScalingBreakdown reproduces Fig 7: the percentage of total run
// time in each AMR component versus numerical time integration under weak
// scaling, plus the parallel efficiency curve.
func Fig7WeakScalingBreakdown(scale Scale) (*Table, *Table) {
	ranks := []int{1, 2, 4, 8}
	perRank := int64(600)
	if scale == Full {
		ranks = []int{1, 2, 4, 8, 16}
		perRank = 4000
	}
	keys := []string{"NewTree", "CoarsenRefine", "BalanceTree", "PartitionTree",
		"ExtractMesh", "InterpolateFields", "TransferFields", "MarkElements", "TimeIntegration"}
	buckets := func(t rhea.Timings) []float64 { // in keys order
		return []float64{t.NewTree, t.CoarsenRefine, t.BalanceTree, t.PartitionTree,
			t.ExtractMesh, t.InterpolateFld, t.TransferFld, t.MarkElements, t.TimeIntegrate}
	}
	breakdown := &Table{
		Title:  "Fig 7 (top): % of total runtime per component, weak scaling",
		Header: append([]string{"#cores"}, append(append([]string{}, keys...), "AMR total")...),
		Notes: []string{
			"paper: AMR total <= 11% at 62,464 cores; ExtractMesh the largest AMR cost",
			fmt.Sprintf("cadence: the mesh is adapted every %d time steps, as in the paper's section-V transport runs (two cycles, after the initial extraction and two initial adaptation rounds, all of which the AMR columns include)", fig7StepsPerAdapt),
			"2-core reference host at this cadence: AMR total 18% / 17% / 18% / 18% at 1 / 2 / 4 / 8 ranks (ExtractMesh 10-12%, BalanceTree 1.5-2.4%), TimeIntegration 82-83%; repeated in-process runs spread over 13-27%",
			"the paper's <= 11% is not met by this table, by a factor under two (it was four while BalanceTree and ExtractMesh hashed octants and node positions: 39-44%). Half to two thirds of the AMR time is the initial extraction and the two initial adaptation rounds of a run only 64 steps long; one cadence adaptation costs 2.2-3.9 transport steps' worth per element at 1-2 ranks, where <= 11% at this cadence allows four",
		},
	}
	eff := &Table{
		Title:  "Fig 7 (bottom): weak-scaling parallel efficiency",
		Header: []string{"#cores", "efficiency", "source"},
		Notes: []string{
			"paper: >= 50% from 1 to 62,464 cores",
			"measured rows beyond the host's physical cores are depressed by CPU oversubscription (ranks are goroutines); the modeled rows carry the scaling statement",
		},
	}
	var samples []perfmodel.Sample
	for _, p := range ranks {
		var times []float64
		var total float64
		var elems int64
		sim.Run(p, func(r *sim.Rank) {
			s := newTransportSim(r, 3, 2, 6, perRank*int64(p))
			r.Barrier()
			for c := 0; c < 2; c++ {
				s.step(fig7StepsPerAdapt)
				s.adapt()
			}
			r.Barrier()
			ne := s.tree.NumGlobal() // collective
			if r.ID() == 0 {
				times = buckets(s.times)
				total = s.totalTime()
				elems = ne
			}
		})
		row := []string{iN(p)}
		amr := 0.0
		for i, k := range keys {
			frac := times[i] / total
			if k != "TimeIntegration" {
				amr += frac
			}
			row = append(row, pct(frac))
		}
		row = append(row, pct(amr))
		breakdown.Rows = append(breakdown.Rows, row)
		samples = append(samples, perfmodel.Sample{N: elems, P: p, T: total})
		eff.Rows = append(eff.Rows, []string{iN(p),
			f3(samples[0].T / total * float64(1)), "measured"})
	}
	fit := perfmodel.FitSamples(samples)
	for _, p := range []int{256, 4096, 16384, 62464} {
		eff.Rows = append(eff.Rows, []string{iN(p), f3(fit.Efficiency(perRank, p)), "modeled"})
	}
	return breakdown, eff
}
