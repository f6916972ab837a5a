// Command rhea runs an end-to-end adaptive mantle convection simulation
// (the paper's §VI setup, scaled down): Boussinesq convection in a
// regional box (or, with -shell, the 24-tree cubed-sphere shell) with
// dynamic AMR every few time steps and a per-cycle report of mesh,
// solver and timing statistics.
//
// With -checkpoint DIR a committed snapshot is written under DIR after
// every cycle; with -restore SNAP the run resumes from that snapshot and
// continues the exact trajectory of the uninterrupted run (pass the same
// scenario flags as the writing run — the snapshot's manifest is checked
// against the flags before the run starts, so a -ranks/-shell/-order/...
// mismatch is a clear startup error, not a late panic). -keep N prunes
// superseded snapshots after each checkpoint, keeping the newest N
// committed ones (the default 0 keeps everything).
//
// With -case NAME the scenario flags are ignored and the named entry of
// the benchmark registry (internal/bench: box, shell, bunge1..bunge4)
// runs its pinned cycle schedule instead, printing the Nu/Vrms table row
// the reference tables pin.
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
	"rhea/internal/rhea"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

func main() {
	ranks := flag.Int("ranks", 4, "simulated MPI ranks (goroutines)")
	cycles := flag.Int("cycles", 4, "adaptation cycles to run (total, including cycles already in a restored snapshot)")
	base := flag.Int("base", 3, "initial uniform octree level")
	maxLevel := flag.Int("max-level", 6, "finest octree level allowed")
	target := flag.Int64("target", 4000, "element budget for MarkElements")
	ra := flag.Float64("ra", 1e6, "Rayleigh number")
	sigmaY := flag.Float64("yield", 1e3, "yield stress (0 = no yielding; box scenario only)")
	shell := flag.Bool("shell", false, "spherical-shell convection on the 24-tree cubed sphere instead of the regional box")
	matfree := flag.Bool("matfree", false, "apply the Stokes operator matrix-free instead of assembling the coupled CSR")
	precond := flag.String("precond", "amg", "velocity-block preconditioner: amg (assembled) or gmg (matrix-free geometric multigrid)")
	localamg := flag.Bool("localamg", false, "per-rank block-Jacobi AMG hierarchies instead of the redundant global hierarchy (cheaper setup, more iterations)")
	order := flag.Int("order", 1, "velocity element order: 1 for the stabilized equal-order Q1-Q1 pair, 2 for the Taylor-Hood Q2-Q1 pair (requires -matfree -precond gmg; runs on a uniform mesh at -base, no AMR)")
	slip := flag.String("slip", "", "free-slip shell boundaries: top (free outer surface) or both (requires -shell)")
	ckptDir := flag.String("checkpoint", "", "write a committed snapshot under this directory after every cycle")
	keep := flag.Int("keep", 0, "prune superseded snapshots after each checkpoint, keeping the newest N committed (0 = keep all; requires -checkpoint)")
	restore := flag.String("restore", "", "resume from this committed snapshot instead of starting fresh")
	caseName := flag.String("case", "", "run this benchmark-registry case ("+strings.Join(bench.Names(), ", ")+") instead of the flag-built scenario")
	flag.Parse()

	if *caseName != "" {
		if *restore != "" || *ckptDir != "" {
			fmt.Println("-case runs a fixed benchmark schedule and cannot be combined with -restore or -checkpoint")
			os.Exit(2)
		}
		runCase(*caseName, *ranks)
		return
	}

	var pk stokes.PrecondKind
	switch *precond {
	case "amg":
		pk = stokes.PrecondAMG
	case "gmg":
		pk = stokes.PrecondGMG
	default:
		fmt.Printf("unknown -precond %q (want amg or gmg)\n", *precond)
		os.Exit(2)
	}
	if *order != 1 && *order != 2 {
		fmt.Printf("unknown -order %d (want 1 or 2)\n", *order)
		os.Exit(2)
	}
	if *order == 2 && (!*matfree || pk != stokes.PrecondGMG) {
		fmt.Println("-order 2 requires -matfree -precond gmg")
		os.Exit(2)
	}
	if *order == 2 && *shell {
		fmt.Println("-order 2 is limited to the box scenario")
		os.Exit(2)
	}
	switch *slip {
	case "", "top", "both":
	default:
		fmt.Printf("unknown -slip %q (want top or both)\n", *slip)
		os.Exit(2)
	}
	if *slip != "" && !*shell {
		fmt.Println("-slip needs -shell (free-slip frames apply to the shell boundaries)")
		os.Exit(2)
	}
	if *keep < 0 {
		fmt.Println("-keep wants a positive snapshot count (or 0 to keep all)")
		os.Exit(2)
	}
	if *keep > 0 && *ckptDir == "" {
		fmt.Println("-keep prunes checkpoint snapshots and needs -checkpoint")
		os.Exit(2)
	}

	var cfg rhea.Config
	if *shell {
		cfg = rhea.Config{
			Shell:       true,
			ShellSlip:   *slip,
			Ra:          *ra,
			InitialTemp: rhea.ShellBlobTemp,
			Visc:        rhea.TemperatureDependent(1, 1),
			BaseLevel:   uint8(*base),
			MinLevel:    uint8(*base),
			MaxLevel:    uint8(*maxLevel),
			TargetElems: *target,
			AdaptEvery:  8,
			Picard:      2,
			MinresTol:   1e-6,
			MinresMax:   800,
			MatrixFree:  *matfree,
			Precond:     pk,
			LocalAMG:    *localamg,
		}
	} else {
		cfg = rhea.Config{
			Dom: fem.Domain{Box: [3]float64{8, 4, 1}},
			Ra:  *ra,
			InitialTemp: func(x [3]float64) float64 {
				T := 1 - x[2]
				T += 0.15 * math.Exp(-((x[0]-2)*(x[0]-2)+(x[1]-2)*(x[1]-2)+(x[2]-0.25)*(x[2]-0.25))/0.05)
				T += 0.15 * math.Exp(-((x[0]-6)*(x[0]-6)+(x[1]-2)*(x[1]-2)+(x[2]-0.3)*(x[2]-0.3))/0.08)
				return T
			},
			Visc:        rhea.YieldingLaw(*sigmaY),
			BaseLevel:   uint8(*base),
			MinLevel:    uint8(*base - 1),
			MaxLevel:    uint8(*maxLevel),
			TargetElems: *target,
			AdaptEvery:  8,
			Picard:      2,
			MinresTol:   1e-6,
			MinresMax:   800,
			MatrixFree:  *matfree,
			Precond:     pk,
			LocalAMG:    *localamg,
			Order:       *order,
		}
	}
	if *order == 2 {
		// The Q2 node layer needs a conforming mesh: pin the octree at the
		// base level and skip the initial adaptation pass.
		cfg.MinLevel = uint8(*base)
		cfg.MaxLevel = uint8(*base)
		cfg.NoInitAdapt = true
	}

	if *restore != "" {
		// Preflight the snapshot manifest against the flags before any
		// collective work: a mismatched -ranks/-shell/-order/... must be a
		// clear startup error naming the offending flags, not a mid-run
		// failure (or, for contradictory scenario shapes, a late panic).
		meta, err := ckpt.Peek(*restore)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-restore %s: %v\n", *restore, err)
			os.Exit(2)
		}
		if meta.Ranks != *ranks {
			fmt.Fprintf(os.Stderr, "-restore %s: snapshot was written by %d ranks; rerun with -ranks %d\n",
				*restore, meta.Ranks, meta.Ranks)
			os.Exit(2)
		}
		if fp := cfg.Fingerprint(); meta.ConfigFP != fp {
			fmt.Fprintf(os.Stderr, "-restore %s: snapshot configuration fingerprint %016x does not match these flags (%016x);\n"+
				"pass the same scenario flags as the writing run (-shell -slip -order -ra -base -max-level -target -matfree -precond -localamg)\n",
				*restore, meta.ConfigFP, fp)
			os.Exit(2)
		}
		if done := meta.Step / int64(cfg.AdaptEvery); done >= int64(*cycles) {
			fmt.Fprintf(os.Stderr, "-restore %s: snapshot is already at cycle %d; nothing to do for -cycles %d\n",
				*restore, done, *cycles)
			os.Exit(2)
		}
	}

	fmt.Printf("RHEA: %d ranks, Ra=%.1e, yield=%.1e, order %d, levels %d..%d, target %d elements\n",
		*ranks, *ra, *sigmaY, *order, cfg.MinLevel, cfg.MaxLevel, *target)

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
		for c := startCycle + 1; c <= *cycles; c++ {
			res := s.SolveStokes()
			dt := s.AdvectSteps(s.Cfg.AdaptEvery)
			st := s.Adapt()
			v := s.Diagnose(false) // collective
			if r.ID() == 0 {
				lo, hi := uint8(0), uint8(0)
				for l, n := range st.LevelCounts {
					if n > 0 {
						if lo == 0 {
							lo = uint8(l)
						}
						hi = uint8(l)
					}
				}
				fmt.Printf("cycle %d: t=%.3e dt=%.2e  elems %d (levels %d..%d)  "+
					"minres %d its  Nu %.4f  Vrms %.3e  refined %d coarsened %d\n",
					c, s.TimeNow, dt, st.ElementsNow, lo, hi,
					res.Iterations, v.Nu, v.Vrms, st.Refined, st.Coarsened)
			}
			if v.Err != nil {
				if r.ID() == 0 {
					fmt.Fprintf(os.Stderr, "cycle %d: %v\n", c, v.Err)
				}
				failed.Store(true)
				return
			}
			if *ckptDir != "" {
				snap := filepath.Join(*ckptDir, fmt.Sprintf("cycle-%04d", c))
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
		if r.ID() == 0 {
			t := s.Times
			fmt.Printf("\ntimings (rank 0, s): AMR total %.3f | transport %.3f | "+
				"stokes setup %.3f (%dx) + update %.3f | MINRES %.3f\n",
				t.AMRTotal(), t.TimeIntegrate, t.StokesSetup, t.StokesSetups,
				t.StokesUpdate, t.MINRES)
			fmt.Printf("AMR breakdown: coarsen/refine %.3f balance %.3f partition %.3f "+
				"extract %.3f interpolate %.3f transfer %.3f mark %.3f\n",
				t.CoarsenRefine, t.BalanceTree, t.PartitionTree,
				t.ExtractMesh, t.InterpolateFld, t.TransferFld, t.MarkElements)
		}
	})
	if failed.Load() {
		os.Exit(1)
	}
}

// runCase executes one benchmark-registry case and prints its table row.
func runCase(name string, ranks int) {
	c, ok := bench.Lookup(name)
	if !ok {
		fmt.Printf("unknown -case %q (want one of: %s)\n", name, strings.Join(bench.Names(), ", "))
		os.Exit(2)
	}
	fmt.Printf("RHEA benchmark %s: %s (%d ranks)\n", c.Name, c.Desc, ranks)
	var res bench.Result
	sim.Run(ranks, func(r *sim.Rank) {
		out := bench.Run(r, c)
		if r.ID() == 0 {
			res = out
		}
	})
	fmt.Printf("%-8s %8s %8s %14s %14s\n", "case", "elems", "minres", "Nu", "Vrms")
	fmt.Printf("%-8s %8d %8d %14.8f %14.8f\n", c.Name, res.Elements, res.Iters, res.Nu, res.Vrms)
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, res.Err)
		os.Exit(1)
	}
}
