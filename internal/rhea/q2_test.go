package rhea

// End-to-end tests for the Taylor-Hood (Order 2) convection path: a
// uniform-mesh Rayleigh-Bénard scenario solved with Q2 velocities must
// run through the full SolveStokes + AdvectSteps loop, agree across
// rank counts, and track the Q1 solution of the same scenario.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/sim"
)

// q2Config is the pinned scenario on a uniform level-2 box: no
// adaptation (the Q2 node layer requires a conforming mesh), matrix-free
// GMG as Order 2 demands.
func q2Config() Config {
	return Config{
		Dom: fem.UnitDomain,
		Ra:  1e4,
		InitialTemp: func(x [3]float64) float64 {
			r2 := (x[0]-0.4)*(x[0]-0.4) + (x[1]-0.6)*(x[1]-0.6) + (x[2]-0.3)*(x[2]-0.3)
			return (1 - x[2]) + 0.2*math.Exp(-r2/0.03)
		},
		Visc:      TemperatureDependent(1, 1),
		BaseLevel: 2,
		MinLevel:  2,
		MaxLevel:  2,
		Picard:    1,
		MinresTol: 1e-9,
		MinresMax: 3000,
		Order:     2,
	}
}

// runQ2 advances the uniform-mesh scenario: a Stokes solve, n transport
// steps, and a final solve (no adaptation).
func runQ2(r *sim.Rank, cfg Config, steps int) (nu, vrms float64) {
	s := New(r, cfg)
	s.SolveStokes()
	s.AdvectSteps(steps)
	s.SolveStokes()
	return s.Nusselt(), s.RMSVelocity()
}

// Reference values logged from the pinned Order-2 scenario (regenerate
// via the t.Logf below). Note the Taylor-Hood diagnostics sit far BELOW
// the equal-order Q1-Q1 values on the same mesh: the stabilized pair
// cannot balance the hydrostatic pressure (quadratic in z) against the
// conductive buoyancy profile and pollutes the velocity with a spurious
// O(Ra h^2) circulation, while the inf-sup stable pair keeps the
// velocity discretely divergence-free — a refinement study shows the
// Q1-Q1 velocities decaying toward the Taylor-Hood ones, not the other
// way around.
const (
	refQ2Nu   = 1.15688581
	refQ2Vrms = 9.68718963
	refQ2Tol  = 1e-5
)

// TestQ2ConvectionRankConsistency runs the Order-2 scenario on 1, 2 and
// 4 ranks and checks the diagnostics are identical across rank counts
// and match the pinned references.
func TestQ2ConvectionRankConsistency(t *testing.T) {
	var nu1, vrms1 float64
	for _, p := range []int{1, 2, 4} {
		p := p
		var nu, vrms float64
		sim.Run(p, func(r *sim.Rank) {
			n, v := runQ2(r, q2Config(), 4)
			if r.ID() == 0 {
				nu, vrms = n, v
			}
		})
		t.Logf("p=%d: Nu=%.11f Vrms=%.11f", p, nu, vrms)
		if nu < 1 {
			t.Errorf("p=%d: Nusselt %v below conductive bound 1", p, nu)
		}
		if p == 1 {
			nu1, vrms1 = nu, vrms
		} else {
			if math.Abs(nu-nu1) > 1e-6 || math.Abs(vrms-vrms1) > 1e-6 {
				t.Errorf("p=%d: diagnostics Nu %.10f Vrms %.10f differ from p=1 (%.10f, %.10f)",
					p, nu, vrms, nu1, vrms1)
			}
		}
		if math.Abs(nu-refQ2Nu) > refQ2Tol || math.Abs(vrms-refQ2Vrms) > refQ2Tol {
			t.Errorf("p=%d: diagnostics moved off pinned references: Nu %.10f (want %.8f), Vrms %.10f (want %.8f)",
				p, nu, refQ2Nu, vrms, refQ2Vrms)
		}
	}
}

// TestQ2ConfigValidation pins the fail-fast paths: Order 2 on the shell,
// which the Q2 node layer does not cover, or with levels that let the
// mesh adapt (which would leave hanging faces the Q2 node layer rejects),
// must be refused by Validate, and New must panic with that error before
// any work is done.
func TestQ2ConfigValidation(t *testing.T) {
	for name, edit := range map[string]func(*Config){
		"shell":    func(c *Config) { c.Shell = true },
		"adaptive": func(c *Config) { c.MaxLevel, c.TargetElems = 3, 400 },
	} {
		cfg := q2Config()
		edit(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Order 2 config accepted", name)
			continue
		}
		func() {
			defer func() {
				if p, _ := recover().(error); p == nil || p.Error() != err.Error() {
					t.Errorf("%s: New panicked with %v, want %v", name, p, err)
				}
			}()
			New(nil, cfg) // a nil rank: New must refuse before it communicates
		}()
	}
}

// TestQ1CirculationDecaysTowardTaylorHood keeps the finding that decided
// to keep the Taylor-Hood pair: on the pinned Ra = 1e4 box, one solve at
// uniform levels 2, 3 and 4, the stabilised Q1-Q1 Nu and Vrms sit far
// above the Taylor-Hood ones — the O(Ra h^2) spurious circulation of the
// equal-order pair — and the gap shrinks by at least 2.5x per level
// (measured: Nu 24.6 -> 7.88 -> 2.19, Vrms 42.7 -> 10.9 -> 1.55), while
// Taylor-Hood barely moves.
func TestQ1CirculationDecaysTowardTaylorHood(t *testing.T) {
	if testing.Short() {
		t.Skip("three levels of Q1 and Q2 solves")
	}
	var prevNu, prevVrms float64
	for _, lvl := range []uint8{2, 3, 4} {
		var diag [3][2]float64 // [order][nu, vrms]
		for _, order := range []int{1, 2} {
			cfg := q2Config()
			cfg.BaseLevel, cfg.MinLevel, cfg.MaxLevel = lvl, lvl, lvl
			cfg.Order, cfg.NoInitAdapt = order, true
			sim.Run(2, func(r *sim.Rank) {
				s := New(r, cfg)
				s.SolveStokes()
				if nu, vrms := s.Nusselt(), s.RMSVelocity(); r.ID() == 0 {
					diag[order] = [2]float64{nu, vrms}
				}
			})
		}
		dNu, dVrms := math.Abs(diag[1][0]-diag[2][0]), math.Abs(diag[1][1]-diag[2][1])
		t.Logf("level %d: Q1 Nu %.3f Vrms %.3f, Taylor-Hood Nu %.3f Vrms %.3f: gaps %.3g, %.3g",
			lvl, diag[1][0], diag[1][1], diag[2][0], diag[2][1], dNu, dVrms)
		if lvl > 2 && (dNu*2.5 > prevNu || dVrms*2.5 > prevVrms) {
			t.Errorf("level %d: gaps %.3g, %.3g did not shrink 2.5x from %.3g, %.3g", lvl, dNu, dVrms, prevNu, prevVrms)
		}
		prevNu, prevVrms = dNu, dVrms
	}
}
