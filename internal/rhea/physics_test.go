package rhea

// End-to-end physics regression tests: a fixed, deterministic
// Rayleigh–Bénard convection scenario whose Nusselt number and RMS
// velocity are pinned to logged reference values and must be identical
// across simulated rank counts. These diagnostics are what guarantee the
// persistent-solver reuse path (and any future solver change) does not
// silently alter the simulation.

import (
	"math"
	"reflect"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/krylov"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// regressionConfig is the pinned Rayleigh–Bénard scenario: unit box,
// Ra = 1e4, mild temperature-dependent viscosity, a single off-center
// perturbation of the conductive profile. Every numerical knob is fixed
// so runs are reproducible; MINRES is converged far below the pinning
// tolerance so rank-count-dependent rounding cannot surface.
func regressionConfig() Config {
	return Config{
		Dom:         fem.UnitDomain,
		Ra:          1e4,
		InitialTemp: BoxBlobTemp,
		Visc:        TemperatureDependent(1, 1),
		BaseLevel:   2,
		MinLevel:    1,
		MaxLevel:    3,
		TargetElems: 200,
		AdaptEvery:  4,
		Picard:      1,
		MinresTol:   1e-9,
		MinresMax:   3000,
		InitAdapt:   1,
	}
}

// runRegression advances the pinned scenario n cycles (Stokes solve + 4
// transport steps + adaptation each) plus a final solve, and returns the
// diagnostics and the number of mesh-dependent solver set-ups. solve is
// the Stokes solve: Sim.SolveStokes, or solveRebuilt.
func runRegression(r *sim.Rank, cfg Config, cycles int, solve func(*Sim) krylov.Result) (nu, vrms float64, setups int) {
	s := New(r, cfg)
	for c := 0; c < cycles; c++ {
		solve(s)
		s.AdvectSteps(4)
		s.Adapt()
	}
	solve(s)
	return s.Nusselt(), s.RMSVelocity(), s.Times.StokesSetups
}

// solveRebuilt is SolveStokes without the solver cache, the behaviour
// before it (collective): every Picard iteration sets the solver up from
// scratch. It runs one single-iteration SolveStokes per Picard iteration
// on a cleared solver, which is what the Picard loop does with a cached
// one.
func solveRebuilt(s *Sim) krylov.Result {
	picard := s.Cfg.Picard
	defer func() { s.Cfg.Picard = picard }()
	s.Cfg.Picard = 1
	var res krylov.Result
	for i := 0; i < picard; i++ {
		s.solver = nil
		res = s.SolveStokes()
	}
	return res
}

// Reference values logged from the pinned scenario (see t.Logf below to
// regenerate). The tolerance absorbs summation-order differences across
// rank counts and architectures; anything beyond it means the physics
// changed.
const (
	refShortNu   = 32.11456417769
	refShortVrms = 48.55259671046
	refFullNu    = 56.86501273193
	refFullVrms  = 94.09621201628
	refTol       = 1e-6
)

// TestConvectionRegressionShort pins the 2-cycle scenario and checks the
// diagnostics are identical (to refTol) on 1, 2 and 4 simulated ranks.
func TestConvectionRegressionShort(t *testing.T) {
	var nu1, vrms1 float64
	for _, p := range []int{1, 2, 4} {
		p := p
		var nu, vrms float64
		sim.Run(p, func(r *sim.Rank) {
			n, v, _ := runRegression(r, regressionConfig(), 2, (*Sim).SolveStokes)
			if r.ID() == 0 {
				nu, vrms = n, v
			}
		})
		t.Logf("p=%d: Nu=%.11f Vrms=%.11f", p, nu, vrms)
		if p == 1 {
			nu1, vrms1 = nu, vrms
		} else {
			if math.Abs(nu-nu1) > refTol {
				t.Errorf("p=%d: Nusselt %.12f differs from p=1 value %.12f", p, nu, nu1)
			}
			if math.Abs(vrms-vrms1) > refTol {
				t.Errorf("p=%d: RMS velocity %.12f differs from p=1 value %.12f", p, vrms, vrms1)
			}
		}
		if math.Abs(nu-refShortNu) > refTol {
			t.Errorf("p=%d: Nusselt %.12f off pinned reference %.12f", p, nu, refShortNu)
		}
		if math.Abs(vrms-refShortVrms) > refTol {
			t.Errorf("p=%d: RMS velocity %.12f off pinned reference %.12f", p, vrms, refShortVrms)
		}
		if nu < 1 {
			t.Errorf("p=%d: Nusselt %v below conductive bound 1", p, nu)
		}
	}
}

// TestConvectionRegressionFull is the longer (5-cycle) pinned run,
// skipped under -short.
func TestConvectionRegressionFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full physics regression runs only without -short")
	}
	var nu1, vrms1 float64
	for _, p := range []int{1, 2, 4} {
		p := p
		var nu, vrms float64
		sim.Run(p, func(r *sim.Rank) {
			n, v, _ := runRegression(r, regressionConfig(), 5, (*Sim).SolveStokes)
			if r.ID() == 0 {
				nu, vrms = n, v
			}
		})
		t.Logf("p=%d: Nu=%.11f Vrms=%.11f", p, nu, vrms)
		if p == 1 {
			nu1, vrms1 = nu, vrms
		} else {
			if math.Abs(nu-nu1) > refTol {
				t.Errorf("p=%d: Nusselt %.12f differs from p=1 value %.12f", p, nu, nu1)
			}
			if math.Abs(vrms-vrms1) > refTol {
				t.Errorf("p=%d: RMS velocity %.12f differs from p=1 value %.12f", p, vrms, vrms1)
			}
		}
		if math.Abs(nu-refFullNu) > refTol {
			t.Errorf("p=%d: Nusselt %.12f off pinned reference %.12f", p, nu, refFullNu)
		}
		if math.Abs(vrms-refFullVrms) > refTol {
			t.Errorf("p=%d: RMS velocity %.12f off pinned reference %.12f", p, vrms, refFullVrms)
		}
	}
}

// TestReuseMatchesNoReuse verifies the persistent-solver cache does not
// change the end-to-end physics: the identical scenario run without the
// cache (solveRebuilt: a full rebuild every Picard iteration, the
// pre-reuse behaviour) must produce the same diagnostics to rounding. With two
// Picard iterations per solve, reuse sets the solver up once for the
// first mesh and once per adaptation followed by a solve; without it,
// once per Picard iteration.
func TestReuseMatchesNoReuse(t *testing.T) {
	const cycles, picard = 2, 2
	var nu, vrms [2]float64
	var setups [2]int
	for i, solve := range []func(*Sim) krylov.Result{(*Sim).SolveStokes, solveRebuilt} {
		i, solve := i, solve
		sim.Run(2, func(r *sim.Rank) {
			cfg := regressionConfig()
			cfg.Picard = picard
			n, v, su := runRegression(r, cfg, cycles, solve)
			if r.ID() == 0 {
				nu[i], vrms[i], setups[i] = n, v, su
			}
		})
	}
	if math.Abs(nu[0]-nu[1]) > 1e-10 || math.Abs(vrms[0]-vrms[1]) > 1e-10 {
		t.Errorf("reuse changes physics: Nu %v vs %v, Vrms %v vs %v", nu[0], nu[1], vrms[0], vrms[1])
	}
	if want := [2]int{1 + cycles, (cycles + 1) * picard}; setups != want {
		t.Errorf("solver set-ups with/without reuse: %v, want %v", setups, want)
	}
}

// TestColdSolveIsStateless: a Stokes solve is a function of the mesh, T
// and (for strain-rate laws) U alone — it carries no guess from the
// previous solve. On the box and on the free-slip shell (local frames at
// the slip nodes), with a temperature-dependent law, a second solve with
// T unchanged repeats the first bit for bit, iterations included, and
// Picard 2 repeats Picard 1 bit for bit.
func TestColdSolveIsStateless(t *testing.T) {
	shell := shellConfig()
	shell.ShellSlip = "top"
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"box", regressionConfig()}, {"shell-slip", shell}} {
		t.Run(tc.name, func(t *testing.T) {
			sim.Run(2, func(r *sim.Rank) {
				s := New(r, tc.cfg)
				s.Cfg.Picard = 1
				first := s.SolveStokes()
				want := captureState(s)
				if !first.Converged || first.Iterations == 0 {
					t.Errorf("rank %d: first solve: converged %v after %d its", r.ID(), first.Converged, first.Iterations)
				}
				if again := s.SolveStokes(); again.Iterations != first.Iterations {
					t.Errorf("rank %d: repeated solve took %d its, first %d", r.ID(), again.Iterations, first.Iterations)
				}
				if !reflect.DeepEqual(captureState(s), want) {
					t.Errorf("rank %d: repeated solve changed U or P", r.ID())
				}
				s.Cfg.Picard = 2
				s.SolveStokes()
				if last := s.LastMinres(); !reflect.DeepEqual(last, first) {
					t.Errorf("rank %d: Picard 2 took %d its to %g, Picard 1 %d to %g",
						r.ID(), last.Iterations, last.Residual, first.Iterations, first.Residual)
				}
				if !reflect.DeepEqual(captureState(s), want) {
					t.Errorf("rank %d: Picard 2 U or P differs from Picard 1", r.ID())
				}
			})
		})
	}
}

// TestTimeLoopReuse runs solver reuse on the fully matrix-free path
// (matrix-free apply, GMG preconditioner, no fine-level matrix ever
// assembled) through a time loop with a Stokes solve every step and an
// adaptation every sixth, with and without reuse. Both compute the same
// physics; the rebuild sets the solver up once per Picard iteration,
// reuse once for the first mesh and once per adaptation followed by a
// solve, and so pays less to build the solver per solve.
func TestTimeLoopReuse(t *testing.T) {
	const steps, adaptEvery, picard = 12, 6, 2
	type run struct {
		nu, vrms, build float64
		setups          int
	}
	var runs [2]run // rebuild, reuse
	for i, solve := range []func(*Sim) krylov.Result{solveRebuilt, (*Sim).SolveStokes} {
		i, solve := i, solve
		sim.Run(2, func(r *sim.Rank) {
			cfg := Config{
				Dom: fem.UnitDomain,
				Ra:  1e5,
				InitialTemp: func(x [3]float64) float64 {
					r2 := (x[0]-0.5)*(x[0]-0.5) + (x[1]-0.5)*(x[1]-0.5) + (x[2]-0.2)*(x[2]-0.2)
					return (1 - x[2]) + 0.25*math.Exp(-r2/0.02)
				},
				Visc:        TemperatureDependent(1, 4.6), // 100x contrast
				BaseLevel:   3,
				MinLevel:    2,
				MaxLevel:    5,
				TargetElems: 600,
				AdaptEvery:  adaptEvery,
				Picard:      picard,
				MinresTol:   1e-6,
				MinresMax:   600,
				InitAdapt:   1,
				MatrixFree:  true,
				Precond:     stokes.PrecondGMG,
			}
			s := New(r, cfg)
			s.Times = Timings{} // discard construction costs
			for step := 1; step <= steps; step++ {
				solve(s)
				s.AdvectSteps(1)
				if step%adaptEvery == 0 {
					s.Adapt()
				}
			}
			nu, vrms := s.Nusselt(), s.RMSVelocity() // collective
			if r.ID() == 0 {
				runs[i] = run{nu, vrms, (s.Times.StokesSetup + s.Times.StokesUpdate) / (steps * picard), s.Times.StokesSetups}
			}
		})
	}
	rebuild, reuse := runs[0], runs[1]
	if rebuild.nu != reuse.nu || rebuild.vrms != reuse.vrms {
		t.Errorf("solver reuse changed the physics: Nu %v vs %v, Vrms %v vs %v",
			rebuild.nu, reuse.nu, rebuild.vrms, reuse.vrms)
	}
	if rebuild.setups != steps*picard {
		t.Errorf("rebuild should set up per Picard solve: %d setups for %d solves", rebuild.setups, steps*picard)
	}
	// An adaptation after the last step would be followed by no solve.
	if want := 1 + (steps-1)/adaptEvery; reuse.setups != want {
		t.Errorf("reuse set the solver up %d times, want %d", reuse.setups, want)
	}
	if reuse.build >= rebuild.build {
		t.Errorf("reuse per-solve build cost %v s not below rebuild %v s", reuse.build, rebuild.build)
	}
	t.Logf("per-solve build: rebuild %.4f s, reuse %.4f s; setups %d -> %d",
		rebuild.build, reuse.build, rebuild.setups, reuse.setups)
}

// TestAdaptStatsInvariants checks the bookkeeping identities of
// AdaptStats over several cycles and rank counts: the unchanged count is
// exactly ElementsPrev - Refined - Coarsened and never negative, and the
// per-level counts sum to the post-adaptation element total.
func TestAdaptStatsInvariants(t *testing.T) {
	ranks := []int{1, 3}
	if testing.Short() {
		ranks = []int{2}
	}
	for _, p := range ranks {
		p := p
		sim.Run(p, func(r *sim.Rank) {
			s := New(r, regressionConfig())
			for cyc := 0; cyc < 3; cyc++ {
				s.SolveStokes()
				s.AdvectSteps(3)
				st := s.Adapt()
				if got := st.ElementsPrev - st.Refined - st.Coarsened; st.Unchanged != got {
					t.Errorf("p=%d cycle %d: Unchanged %d != Prev-Refined-Coarsened %d (%+v)",
						p, cyc, st.Unchanged, got, st)
				}
				if st.Unchanged < 0 {
					t.Errorf("p=%d cycle %d: negative unchanged count: %+v", p, cyc, st)
				}
				var tot int64
				for _, c := range st.LevelCounts {
					tot += c
				}
				if tot != st.ElementsNow {
					t.Errorf("p=%d cycle %d: level counts sum %d != ElementsNow %d",
						p, cyc, tot, st.ElementsNow)
				}
				if st.ElementsNow != st.ElementsPrev+7*st.Refined-7*st.Coarsened/8+st.BalanceAdded {
					t.Errorf("p=%d cycle %d: element count identity violated: %+v", p, cyc, st)
				}
			}
		})
	}
}
