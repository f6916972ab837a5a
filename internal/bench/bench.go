// Package bench is the benchmark-case registry: named, fully pinned
// simulation scenarios — the community mantle-convection benchmark of
// Bunge, Richards & Baumgartner (cases 1–4: layered viscosity,
// free-slip outer surface, spherical shell with Earth-like radii) plus
// the repo's own box and shell regression scenarios — together with a
// uniform runner that produces the Nu/Vrms diagnostics the reference
// tables and BENCH_bunge.json pin. cmd/rhea (-case) and the benchmark
// harness resolve cases from here, so a scenario is defined in exactly
// one place.
package bench

import (
	"math"
	"sort"

	"rhea/internal/fem"
	"rhea/internal/rhea"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// Bunge et al. physical constants. The benchmark is specified in SI
// units; the code runs the nondimensional equations, so only the
// derived Rayleigh number and the geometry enter a Config.
const (
	bungeAlpha  = 2.5e-5 // thermal expansivity [1/K]
	bungeRho    = 4.5e3  // reference density [kg/m^3]
	bungeGrav   = 10.0   // gravitational acceleration [m/s^2]
	bungeDeltaT = 2390.0 // temperature drop across the mantle [K]
	bungeKappa  = 1e-6   // thermal diffusivity [m^2/s]
	bungeDepth  = 2.89e6 // mantle depth D = R_outer - R_inner [m]
)

// Nondimensional Bunge shell geometry: lengths are scaled by the
// mantle depth D = 2890 km, so the shell thickness is exactly 1 and
// rhea's depth coordinate z = (r - RInner)/(ROuter - RInner) reduces
// to r - RInner. The 660 km discontinuity sits at radius 5710 km.
const (
	BungeRInner = 3480.0 / 2890.0
	BungeROuter = 6370.0 / 2890.0
	bungeZ660   = 2230.0 / 2890.0
)

// BungeRa is the benchmark's Rayleigh number for an upper-mantle
// viscosity etaUM: Ra = alpha rho g dT D^3 / (kappa etaUM).
func BungeRa(etaUM float64) float64 {
	d3 := bungeDepth * bungeDepth * bungeDepth
	return bungeAlpha * bungeRho * bungeGrav * bungeDeltaT * d3 / (bungeKappa * etaUM)
}

// LayeredViscosity is the benchmark's depth-dependent profile,
// normalized by the upper-mantle viscosity: 1 above the 660 km
// discontinuity, jump (30 for the layered cases, 1 for the isoviscous
// ones) below it.
func LayeredViscosity(jump float64) rhea.ViscosityLaw {
	return func(_, z, _ float64) float64 {
		if z > bungeZ660 {
			return 1
		}
		return jump
	}
}

// BungeTemp is the pinned initial condition shared by all four Bunge
// cases: the conductive profile of the Earth-like shell plus one
// off-axis Gaussian blob to break spherical symmetry (the benchmark
// prescribes a single-perturbation start; the exact blob is this
// registry's pin, like ShellBlobTemp for the regression shell).
func BungeTemp(x [3]float64) float64 {
	rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
	cond := BungeRInner * (BungeROuter - rad) / (rad * (BungeROuter - BungeRInner))
	d2 := (x[0]-1.45)*(x[0]-1.45) + x[1]*x[1] + (x[2]-0.7)*(x[2]-0.7)
	return cond + 0.2*math.Exp(-d2/0.05)
}

// Case is one registry entry: a named scenario plus the fixed cycle
// schedule its reference diagnostics were generated under.
type Case struct {
	Name   string
	Desc   string
	Cycles int // solve + advect + adapt cycles before the final solve
	Steps  int // advection steps per cycle
	Config func() rhea.Config
}

// Result holds the diagnostics of one benchmark run.
type Result struct {
	Nu       float64
	Vrms     float64
	Elements int64
	Iters    int   // MINRES iterations of the final Stokes solve
	Err      error // the final state's rhea.Verdict error
}

// bungeConfig builds the shared free-slip-top shell configuration for
// one Bunge case. All four cases differ only in Rayleigh number and
// lower-mantle viscosity jump.
func bungeConfig(etaUM, jump float64) rhea.Config {
	return rhea.Config{
		Shell:       true,
		ShellSlip:   "top",
		RInner:      BungeRInner,
		ROuter:      BungeROuter,
		Ra:          BungeRa(etaUM),
		InitialTemp: BungeTemp,
		Visc:        LayeredViscosity(jump),
		BaseLevel:   1,
		MinLevel:    1,
		MaxLevel:    3,
		TargetElems: 400,
		AdaptEvery:  4,
		Picard:      1,
		InitAdapt:   1,
		MinresTol:   1e-9,
		MinresMax:   4000,
		MatrixFree:  true,
		Precond:     stokes.PrecondGMG,
	}
}

// boxConfig is the repo's pinned unit-box Rayleigh–Bénard regression
// (the assembled-CSR path), identical to the scenario physics_test.go
// pins.
func boxConfig() rhea.Config {
	return rhea.Config{
		Dom:         fem.UnitDomain,
		Ra:          1e4,
		InitialTemp: rhea.BoxBlobTemp,
		Visc:        rhea.TemperatureDependent(1, 1),
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

// shellConfig is the repo's pinned no-slip cubed-sphere shell
// regression (matrix-free + GMG), identical to the scenario
// shell_test.go pins.
func shellConfig() rhea.Config {
	return rhea.Config{
		Shell:       true,
		Ra:          1e4,
		InitialTemp: rhea.ShellBlobTemp,
		Visc:        rhea.TemperatureDependent(1, 1),
		BaseLevel:   1,
		MinLevel:    1,
		MaxLevel:    3,
		TargetElems: 400,
		AdaptEvery:  4,
		Picard:      1,
		InitAdapt:   1,
		MinresTol:   1e-9,
		MinresMax:   3000,
		MatrixFree:  true,
		Precond:     stokes.PrecondGMG,
	}
}

var registry = []Case{
	{
		Name:   "box",
		Desc:   "unit-box Rayleigh-Benard regression, Ra 1e4, assembled CSR",
		Cycles: 2, Steps: 4,
		Config: boxConfig,
	},
	{
		Name:   "shell",
		Desc:   "no-slip cubed-sphere shell regression, Ra 1e4, matrix-free GMG",
		Cycles: 1, Steps: 4,
		Config: shellConfig,
	},
	{
		Name:   "bunge1",
		Desc:   "Bunge case 1: isoviscous 1.7e24 Pa s (Ra 3.8e4), free-slip top",
		Cycles: 1, Steps: 4,
		Config: func() rhea.Config { return bungeConfig(1.7e24, 1) },
	},
	{
		Name:   "bunge2",
		Desc:   "Bunge case 2: 5.8e22 Pa s upper mantle (Ra 1.1e6), 30x lower mantle, free-slip top",
		Cycles: 1, Steps: 4,
		Config: func() rhea.Config { return bungeConfig(5.8e22, 30) },
	},
	{
		Name:   "bunge3",
		Desc:   "Bunge case 3: isoviscous 5.8e22 Pa s (Ra 1.1e6), free-slip top",
		Cycles: 1, Steps: 4,
		Config: func() rhea.Config { return bungeConfig(5.8e22, 1) },
	},
	{
		Name:   "bunge4",
		Desc:   "Bunge case 4: 7e21 Pa s upper mantle (Ra 9.3e6), 30x lower mantle, free-slip top",
		Cycles: 1, Steps: 4,
		Config: func() rhea.Config { return bungeConfig(7e21, 30) },
	},
}

// Cases returns the registry in its canonical order.
func Cases() []Case {
	out := make([]Case, len(registry))
	copy(out, registry)
	return out
}

// Names returns the sorted case names (for error messages and -help).
func Names() []string {
	names := make([]string, len(registry))
	for i, c := range registry {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a case by name.
func Lookup(name string) (Case, bool) {
	for _, c := range registry {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// Run executes one case on the given communicator (collective): the
// pinned cycle schedule of solve + advect + adapt rounds followed by a
// final solve, returning the diagnostics the reference tables pin.
// The run is deterministic per rank count; across rank counts the
// diagnostics agree to reduction rounding (see bench_test.go).
func Run(r *sim.Rank, c Case) Result {
	s := rhea.New(r, c.Config())
	for i := 0; i < c.Cycles; i++ {
		s.SolveStokes()
		s.AdvectSteps(c.Steps)
		s.Adapt()
	}
	res := s.SolveStokes()
	v := s.Diagnose(false)
	return Result{
		Nu:       v.Nu,
		Vrms:     v.Vrms,
		Iters:    res.Iterations,
		Err:      v.Err,
		Elements: s.Forest.NumGlobal(),
	}
}
