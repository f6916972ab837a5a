package experiments

import (
	"fmt"
	"time"

	"rhea/internal/rhea"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// TimeLoopCase holds rank-0 measurements of one time-loop run.
type TimeLoopCase struct {
	Label  string
	Reuse  bool
	Solves int     // Stokes Update count (Picard iterations x solves)
	Setups int     // mesh-dependent Setup count
	Setup  float64 // Timings.StokesSetup (s)
	Update float64 // Timings.StokesUpdate (s)
	Minres float64 // Timings.MINRES (s)
	Wall   float64 // total wall clock of the stepped loop (s)
	Nu     float64 // final Nusselt number (must not depend on reuse)
	Vrms   float64 // final RMS velocity (must not depend on reuse)
}

// BuildPerSolve is the per-solve cost of building the solver (setup +
// update averaged over all Stokes solves) — the quantity solver-state
// reuse is meant to shrink.
func (c TimeLoopCase) BuildPerSolve() float64 {
	if c.Solves == 0 {
		return 0
	}
	return (c.Setup + c.Update) / float64(c.Solves)
}

// FigTimeLoop measures the paper's Figure-10-style wall-clock breakdown
// of a multi-cycle Rayleigh–Bénard convection run — Stokes solve every
// time step, adaptation every AdaptEvery steps — with and without
// persistent solver reuse, on the fully matrix-free path (matfree apply +
// GMG preconditioner) where no fine-level matrix is ever assembled.
//
// With reuse the mesh-dependent setup (constraint tables, GMG level
// meshes and transfer stencils) runs only after each Adapt; every Picard
// iteration in between refreshes just the viscosity-dependent half. The
// full-rebuild rows reproduce the pre-reuse behaviour for comparison, and
// the final diagnostics pin that both paths compute the same physics.
func FigTimeLoop(scale Scale) (*Table, []TimeLoopCase) {
	p := 2
	steps, adaptEvery := 12, 6
	base, maxLvl, target := uint8(3), uint8(5), int64(1200)
	if scale == Full {
		p = 4
		steps, adaptEvery = 16, 8
		target = 4000
		maxLvl = 6
	}
	t := &Table{
		Title: "time loop: persistent Stokes/GMG setup reuse across Picard iterations and timesteps",
		Header: []string{"mode", "solves", "setups", "setup s", "update s",
			"build/solve s", "minres s", "wall s", "Nu", "Vrms"},
		Notes: []string{
			fmt.Sprintf("Rayleigh-Benard blob run, %d ranks, %d steps (Stokes solve each), adapt every %d, Picard 2, matfree apply + GMG precond", p, steps, adaptEvery),
			"rebuild = full mesh-dependent setup every Picard iteration (pre-reuse behaviour); reuse = setup only after Adapt",
		},
	}
	var cases []TimeLoopCase
	for _, reuse := range []bool{false, true} {
		label := "rebuild"
		if reuse {
			label = "reuse"
		}
		var c TimeLoopCase
		sim.Run(p, func(r *sim.Rank) {
			cfg := blobCfg(base, maxLvl, target)
			cfg.MatrixFree = true
			cfg.Precond = stokes.PrecondGMG
			cfg.Picard = 2
			cfg.AdaptEvery = adaptEvery
			cfg.NoReuse = !reuse
			s := rhea.New(r, cfg)
			s.Times = rhea.Timings{} // discard construction costs
			r.Barrier()
			t0 := time.Now()
			for step := 1; step <= steps; step++ {
				s.SolveStokes()
				s.AdvectSteps(1)
				if step%adaptEvery == 0 {
					s.Adapt()
				}
			}
			r.Barrier()
			wall := time.Since(t0).Seconds()
			nu := s.Nusselt()       // collective
			vrms := s.RMSVelocity() // collective
			if r.ID() == 0 {
				tt := s.Times
				c = TimeLoopCase{
					Label: label, Reuse: reuse,
					Solves: steps * cfg.Picard, Setups: tt.StokesSetups,
					Setup: tt.StokesSetup, Update: tt.StokesUpdate,
					Minres: tt.MINRES, Wall: wall, Nu: nu, Vrms: vrms,
				}
			}
		})
		cases = append(cases, c)
		t.Rows = append(t.Rows, []string{
			c.Label, iN(c.Solves), iN(c.Setups), f3(c.Setup), f3(c.Update),
			fmt.Sprintf("%.4f", c.BuildPerSolve()), f3(c.Minres), f3(c.Wall),
			f3(c.Nu), f3(c.Vrms)})
	}
	if len(cases) == 2 && cases[1].BuildPerSolve() > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"reuse cuts per-solve build cost %.1fx (%.4f s -> %.4f s); setups %d -> %d (one per adaptation + initial)",
			cases[0].BuildPerSolve()/cases[1].BuildPerSolve(),
			cases[0].BuildPerSolve(), cases[1].BuildPerSolve(),
			cases[0].Setups, cases[1].Setups))
	}
	return t, cases
}
