package rhea

// End-to-end spherical-shell convection regression: a fixed
// Rayleigh–Bénard-style scenario on the paper's 24-tree cubed sphere
// (radial gravity, hot inner / cold outer boundary, no-slip shell
// walls), solved fully matrix-free with the GMG-preconditioned Stokes
// solver, including one adaptation cycle. The Nusselt number and RMS
// velocity must be finite, physical, identical across simulated rank
// counts, and equal to the pinned reference values — the shell
// counterpart of the box regression in physics_test.go.

import (
	"math"
	"testing"

	"rhea/internal/sim"
)

// shellConfig is the pinned shell scenario: conductive radial profile
// plus one off-axis thermal blob, Ra = 1e4, mild temperature-dependent
// viscosity, 24-tree cubed sphere at base level 1 (192 elements before
// adaptation).
func shellConfig() Config {
	return Config{
		Shell:       true,
		Ra:          1e4,
		InitialTemp: ShellBlobTemp,
		Visc:        TemperatureDependent(1, 1),
		BaseLevel:   1,
		MinLevel:    1,
		MaxLevel:    3,
		TargetElems: 400,
		AdaptEvery:  4,
		Picard:      1,
		InitAdapt:   1,
		MinresTol:   1e-9,
		MinresMax:   3000,
	}
}

// Reference values logged from the pinned shell scenario (regenerate
// via the t.Logf below). The tolerance absorbs summation-order
// differences across rank counts; anything beyond it means the shell
// physics changed.
const (
	refShellNu   = 35.99540832
	refShellVrms = 74.16630003
	refShellTol  = 1e-5
)

// TestShellConvectionRegression runs one solve+advect+adapt cycle plus a
// final solve on 1, 2 and 4 ranks and checks the diagnostics agree with
// each other and with the pinned references.
func TestShellConvectionRegression(t *testing.T) {
	var nu1, vrms1 float64
	for _, p := range []int{1, 2, 4} {
		p := p
		var nu, vrms float64
		var elems int64
		sim.Run(p, func(r *sim.Rank) {
			s := New(r, shellConfig())
			s.SolveStokes()
			s.AdvectSteps(4)
			s.Adapt()
			s.SolveStokes()
			n, v := s.Nusselt(), s.RMSVelocity() // collective
			ne := s.Forest.NumGlobal()           // collective
			if r.ID() == 0 {
				nu, vrms = n, v
				elems = ne
			}
		})
		t.Logf("ranks %d: Nu %.8f Vrms %.8f (%d elements)", p, nu, vrms, elems)
		if math.IsNaN(nu) || math.IsInf(nu, 0) || math.IsNaN(vrms) || math.IsInf(vrms, 0) {
			t.Fatalf("ranks %d: non-finite diagnostics Nu=%v Vrms=%v", p, nu, vrms)
		}
		if nu <= 1 || vrms <= 0 {
			t.Fatalf("ranks %d: unphysical diagnostics Nu=%v Vrms=%v (expected convection)", p, nu, vrms)
		}
		if p == 1 {
			nu1, vrms1 = nu, vrms
			if math.Abs(nu-refShellNu) > refShellTol || math.Abs(vrms-refShellVrms) > refShellTol {
				t.Errorf("pinned references moved: Nu %.8f (want %.8f), Vrms %.8f (want %.8f)",
					nu, refShellNu, vrms, refShellVrms)
			}
			continue
		}
		if math.Abs(nu-nu1) > refShellTol || math.Abs(vrms-vrms1) > refShellTol {
			t.Errorf("ranks %d: diagnostics differ from 1-rank run: Nu %.10f vs %.10f, Vrms %.10f vs %.10f",
				p, nu, nu1, vrms, vrms1)
		}
	}
}
