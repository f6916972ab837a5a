// Command rhea runs one adaptive mantle convection scenario end to end:
// cycles of Stokes solve, transport and dynamic AMR with a per-cycle
// report of mesh, solver and diagnostics, then a final solve with its
// Nu/Vrms table row and the paper's §VI accounting (AMR elements against
// the uniform mesh at the finest level, the resolved length, the
// viscosity range) and a timing breakdown.
//
// The scenario is -case NAME from the benchmark registry (internal/bench:
// box, shell, bunge1..bunge4) or, without -case, the paper's §VI yielding
// box, scaled down. Flags set on the command line override the
// scenario's fields; unset flags keep its values, and -cycles defaults to
// its schedule, so `rhea -case NAME` prints the row the reference tables
// pin.
//
// With -checkpoint DIR a committed snapshot is written under DIR after
// every cycle; with -restore SNAP the run resumes from that snapshot and
// continues the exact trajectory of the uninterrupted run (pass the same
// scenario flags as the writing run, -case included — the snapshot's
// manifest is checked against them before the run starts, so a
// mismatch is a clear startup error, not a late panic). -keep N prunes
// superseded snapshots after each checkpoint, keeping the newest N
// committed ones (the default 0 keeps everything).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"rhea/internal/bench"
	"rhea/internal/ckpt"
	"rhea/internal/fem"
	"rhea/internal/morton"
	"rhea/internal/rhea"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// yielding is the default scenario, the paper's §VI headline experiment:
// convection in an 8 x 4 x 1 regional box under the three-layer law that
// yields plastically under high deviatoric stress, producing weak plate
// boundaries above strong downwellings.
var yielding = bench.Case{
	Name:   "yielding",
	Desc:   "§VI regional box 8x4x1, Ra 1e6, yielding three-layer viscosity",
	Cycles: 3,
	Config: func() rhea.Config {
		return rhea.Config{
			Dom: fem.Domain{Box: [3]float64{8, 4, 1}},
			Ra:  1e6,
			InitialTemp: func(x [3]float64) float64 {
				T := 1 - x[2]
				// Downwelling sheet: a cold anomaly in the upper boundary
				// layer that will sink and localize stress, plus a hot
				// plume source.
				T -= 0.2 * math.Exp(-((x[0]-4)*(x[0]-4)/0.4 + (x[2]-0.9)*(x[2]-0.9)/0.002))
				T += 0.2 * math.Exp(-((x[0]-2)*(x[0]-2)+(x[1]-2)*(x[1]-2)+(x[2]-0.2)*(x[2]-0.2))/0.05)
				return math.Max(0, math.Min(1.3, T))
			},
			Visc:        rhea.YieldingLaw(1e3),
			ViscMin:     1e-4,
			ViscMax:     1e4,
			BaseLevel:   3,
			MinLevel:    2,
			MaxLevel:    7,
			TargetElems: 6000,
			AdaptEvery:  6,
			Picard:      2,
			MinresTol:   1e-5,
			MinresMax:   1500,
		}
	},
}

func main() {
	ranks := flag.Int("ranks", 4, "simulated MPI ranks (goroutines)")
	caseName := flag.String("case", "", "run this benchmark-registry case ("+strings.Join(bench.Names(), ", ")+") instead of the §VI yielding box")
	cycles := flag.Int("cycles", 0, "adaptation cycles to run before the final solve (total, including cycles already in a restored snapshot; default: the scenario's)")
	base := flag.Int("base", 0, "initial uniform level (lowers the coarsest level to it if needed)")
	maxLevel := flag.Int("max-level", 0, "finest level allowed")
	target := flag.Int64("target", 0, "element budget for MarkElements")
	ra := flag.Float64("ra", 0, "Rayleigh number")
	sigmaY := flag.Float64("yield", 0, "use the §VI yielding viscosity law with this yield stress (0 = no yielding)")
	matfree := flag.Bool("matfree", false, "apply the Stokes operator matrix-free instead of assembling the coupled CSR")
	precond := flag.String("precond", "", "velocity-block preconditioner: amg (assembled) or gmg (matrix-free geometric multigrid)")
	localamg := flag.Bool("localamg", false, "per-rank block-Jacobi AMG hierarchies instead of the redundant global hierarchy (cheaper setup, more iterations)")
	order := flag.Int("order", 0, "velocity element order: 1 for the stabilized equal-order Q1-Q1 pair, 2 for the Taylor-Hood Q2-Q1 pair (requires -matfree -precond gmg; runs on a uniform mesh at the base level, no AMR)")
	slip := flag.String("slip", "", "free-slip shell boundaries: top (free outer surface) or both (shell scenarios only)")
	ckptDir := flag.String("checkpoint", "", "write a committed snapshot under this directory after every cycle")
	keep := flag.Int("keep", 0, "prune superseded snapshots after each checkpoint, keeping the newest N committed (0 = keep all; requires -checkpoint)")
	restore := flag.String("restore", "", "resume from this committed snapshot instead of starting fresh")
	flag.Parse()

	c := yielding
	if *caseName != "" {
		var ok bool
		if c, ok = bench.Lookup(*caseName); !ok {
			fail("unknown -case %q (want one of: %s)", *caseName, strings.Join(bench.Names(), ", "))
		}
	}
	cfg := c.Config()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "cycles":
			c.Cycles = *cycles
		case "base":
			cfg.BaseLevel = level("base", *base)
			cfg.MinLevel = min(cfg.MinLevel, cfg.BaseLevel)
		case "max-level":
			cfg.MaxLevel = level("max-level", *maxLevel)
		case "target":
			cfg.TargetElems = *target
		case "ra":
			cfg.Ra = *ra
		case "yield":
			cfg.Visc = rhea.YieldingLaw(*sigmaY)
		case "matfree":
			cfg.MatrixFree = *matfree
		case "precond":
			switch *precond {
			case "amg":
				cfg.Precond = stokes.PrecondAMG
			case "gmg":
				cfg.Precond = stokes.PrecondGMG
			default:
				fail("unknown -precond %q (want amg or gmg)", *precond)
			}
		case "localamg":
			cfg.LocalAMG = *localamg
		case "order":
			cfg.Order = *order
		case "slip":
			cfg.ShellSlip = *slip
		}
	})
	if cfg.Order == 2 {
		// The Q2 node layer needs a conforming mesh: pin the octree at the
		// base level and skip the initial adaptation pass.
		cfg.MinLevel = cfg.BaseLevel
		cfg.MaxLevel = cfg.BaseLevel
		cfg.NoInitAdapt = true
	}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}
	switch {
	case *ranks < 1:
		fail("-ranks %d: want at least one rank", *ranks)
	case c.Cycles < 0:
		fail("-cycles %d: want a non-negative cycle count", c.Cycles)
	case *keep < 0:
		fail("-keep wants a positive snapshot count (or 0 to keep all)")
	case *keep > 0 && *ckptDir == "":
		fail("-keep prunes checkpoint snapshots and needs -checkpoint")
	}

	if *restore != "" {
		// Preflight the snapshot manifest against the flags before any
		// collective work: a mismatched scenario must be a clear startup
		// error naming the offending flags, not a mid-run failure (or, for
		// contradictory scenario shapes, a late panic).
		meta, err := ckpt.Peek(*restore)
		if err != nil {
			fail("-restore %s: %v", *restore, err)
		}
		if meta.Ranks != *ranks {
			fail("-restore %s: snapshot was written by %d ranks; rerun with -ranks %d", *restore, meta.Ranks, meta.Ranks)
		}
		if fp := cfg.Fingerprint(); meta.ConfigFP != fp {
			fail("-restore %s: snapshot configuration fingerprint %016x does not match these flags (%016x);\n"+
				"pass the same scenario flags as the writing run (-case -slip -order -ra -base -max-level -target -matfree -precond -localamg)",
				*restore, meta.ConfigFP, fp)
		}
		if done := meta.Step / int64(cfg.AdaptEvery); done >= int64(c.Cycles) {
			fail("-restore %s: snapshot is already at cycle %d; nothing to do for -cycles %d", *restore, done, c.Cycles)
		}
	}

	fmt.Printf("RHEA %s: %s\n%d ranks, Ra=%.1e, levels %d..%d, target %d elements, %d cycles of %d steps\n",
		c.Name, c.Desc, *ranks, cfg.Ra, cfg.MinLevel, cfg.MaxLevel, cfg.TargetElems, c.Cycles, cfg.AdaptEvery)

	var failed atomic.Bool
	sim.Run(*ranks, func(r *sim.Rank) {
		var s *rhea.Sim
		if *restore != "" {
			var err error
			s, err = rhea.Restore(r, cfg, *restore)
			if err != nil {
				if r.ID() == 0 {
					fmt.Fprintf(os.Stderr, "restore failed: %v\n", err)
				}
				failed.Store(true)
				return
			}
		} else {
			s = rhea.New(r, cfg)
		}
		startCycle := s.Step / s.Cfg.AdaptEvery
		n0 := s.Forest.NumGlobal() // collective
		if r.ID() == 0 {
			if *restore != "" {
				fmt.Printf("restored %s: cycle %d, t=%.3e, %d elements, %d nodes\n",
					*restore, startCycle, s.TimeNow, n0, s.Mesh.NGlobal)
			} else {
				fmt.Printf("initial mesh: %d elements, %d nodes\n", n0, s.Mesh.NGlobal)
			}
		}
		for cyc := startCycle + 1; cyc <= c.Cycles; cyc++ {
			res := s.SolveStokes()
			dt := s.AdvectSteps(s.Cfg.AdaptEvery)
			st := s.Adapt()
			v := s.Diagnose(false) // collective
			if r.ID() == 0 {
				lo, hi := levelRange(st.LevelCounts)
				fmt.Printf("cycle %d: t=%.3e dt=%.2e  elems %d (levels %d..%d)  "+
					"minres %d its  Nu %.4f  Vrms %.3e  refined %d coarsened %d\n",
					cyc, s.TimeNow, dt, st.ElementsNow, lo, hi,
					res.Iterations, v.Nu, v.Vrms, st.Refined, st.Coarsened)
			}
			if v.Err != nil {
				if r.ID() == 0 {
					fmt.Fprintf(os.Stderr, "cycle %d: %v\n", cyc, v.Err)
				}
				failed.Store(true)
				return
			}
			if *ckptDir != "" {
				snap := filepath.Join(*ckptDir, fmt.Sprintf("cycle-%04d", cyc))
				if err := s.Checkpoint(snap); err != nil {
					if r.ID() == 0 {
						fmt.Fprintf(os.Stderr, "checkpoint failed: %v\n", err)
					}
					failed.Store(true)
					return
				}
				if r.ID() == 0 {
					fmt.Printf("checkpoint: %s\n", snap)
					if *keep > 0 {
						// Best-effort prune: the GC only ever removes committed
						// snapshots older than the newest *keep, never the one
						// just written and never an in-flight directory.
						if removed, err := ckpt.GC(*ckptDir, *keep); err != nil {
							fmt.Fprintf(os.Stderr, "snapshot gc: %v\n", err)
						} else if len(removed) > 0 {
							fmt.Printf("pruned %d superseded snapshot(s)\n", len(removed))
						}
					}
				}
			}
		}

		// The final solve and its table row, then the §VI accounting of
		// the final state (all collective).
		row := bench.Final(s)
		lo, hi := s.Forest.MinMaxLevel()
		loEta, hiEta := math.Inf(1), math.Inf(-1)
		for _, e := range s.ElementViscosity() {
			loEta = math.Min(loEta, e)
			hiEta = math.Max(hiEta, e)
		}
		loEta = r.Allreduce(loEta, sim.OpMin)
		hiEta = r.Allreduce(hiEta, sim.OpMax)
		if r.ID() != 0 {
			return
		}
		fmt.Printf("\n%-8s %8s %8s %14s %14s\n", "case", "elems", "minres", "Nu", "Vrms")
		fmt.Printf("%-8s %8d %8d %14.8f %14.8f\n", c.Name, row.Elements, row.Iters, row.Nu, row.Vrms)
		if row.Err != nil {
			fmt.Fprintln(os.Stderr, row.Err)
			failed.Store(true)
		}

		// Every tree spans the whole mantle depth, so a level-l element is
		// 2^-l of it radially.
		uniform := int64(s.Forest.Conn.NumTrees()) << (3 * int64(hi))
		fmt.Printf("\n--- Section VI accounting (scaled reproduction) ---\n")
		fmt.Printf("AMR elements:            %d across levels %d..%d\n", row.Elements, lo, hi)
		fmt.Printf("uniform mesh at level %d: %d elements\n", hi, uniform)
		fmt.Printf("reduction factor:        %.0fx\n", float64(uniform)/float64(row.Elements))
		fmt.Printf("finest resolution:       %.1f km (of 2900 km mantle depth)\n", 2900.0/float64(uint32(1)<<hi))
		fmt.Printf("viscosity range:         %.2e .. %.2e (%.0e variation)\n", loEta, hiEta, hiEta/loEta)
		fmt.Printf("paper: 19.2M elements at 14 levels, >1000x reduction, ~1.5 km, 1e4 viscosity range\n")

		t := s.Times
		fmt.Printf("\ntimings (rank 0, s): AMR total %.3f | transport %.3f | "+
			"stokes setup %.3f (%dx) + update %.3f | MINRES %.3f\n",
			t.AMRTotal(), t.TimeIntegrate, t.StokesSetup, t.StokesSetups,
			t.StokesUpdate, t.MINRES)
		fmt.Printf("AMR breakdown: coarsen/refine %.3f balance %.3f partition %.3f "+
			"extract %.3f interpolate %.3f transfer %.3f mark %.3f\n",
			t.CoarsenRefine, t.BalanceTree, t.PartitionTree,
			t.ExtractMesh, t.InterpolateFld, t.TransferFld, t.MarkElements)
	})
	if failed.Load() {
		os.Exit(1)
	}
}

// level converts a refinement-level flag, refusing a value outside
// [0, morton.MaxLevel] before it could wrap through uint8.
func level(name string, v int) uint8 {
	if v < 0 || v > morton.MaxLevel {
		fail("-%s %d outside [0, %d]", name, v, morton.MaxLevel)
	}
	return uint8(v)
}

// fail reports a usage error and exits with status 2.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// levelRange returns the coarsest and finest level that hold leaves in a
// per-level leaf count, (0, 0) when none does.
func levelRange(counts []int64) (lo, hi int) {
	found := false
	for l, n := range counts {
		if n > 0 {
			if !found {
				lo, found = l, true
			}
			hi = l
		}
	}
	return lo, hi
}
