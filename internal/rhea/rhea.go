// Package rhea is the mantle-convection application of the paper (§II,
// §VI): the Boussinesq system
//
//	div u = 0
//	grad p - div( eta(T,u) (grad u + grad u^T) ) = Ra T e_z
//	dT/dt + u . grad T - Laplace T = gamma
//
// solved by operator splitting — an explicit SUPG advection–diffusion
// step for the temperature followed by a variable-viscosity Stokes solve
// with Picard iteration for the strain-rate-dependent (yielding)
// viscosity — on a dynamically adapted octree mesh. The Adapt method runs
// the complete paper pipeline (MarkElements, CoarsenTree, RefineTree,
// BalanceTree, field projection, PartitionTree, TransferFields,
// ExtractMesh) and records per-function wall-clock timings in the same
// breakdown as the paper's Figures 8 and 10.
package rhea

import (
	"errors"
	"fmt"
	"math"
	"time"

	"rhea/internal/advect"
	"rhea/internal/amg"
	"rhea/internal/errind"
	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/gmg"
	"rhea/internal/krylov"
	"rhea/internal/la"
	"rhea/internal/matfree"
	"rhea/internal/mesh"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// ViscosityLaw maps temperature, nondimensional depth coordinate z in
// [0,1] (0 = bottom, 1 = surface) and the second invariant of the
// deviatoric strain rate to a viscosity.
type ViscosityLaw func(T, z, strainII float64) float64

// TemperatureDependent returns the Newtonian law eta0 * exp(-E T).
func TemperatureDependent(eta0, E float64) ViscosityLaw {
	return func(T, _, _ float64) float64 { return eta0 * math.Exp(-E*T) }
}

// BoxBlobTemp is the canonical unit-box initial condition: the conductive
// profile plus one off-center Gaussian blob. Named and exported so
// checkpoint-resuming callers (the scenario service, cmd/rhea) can refer
// to the exact same function across process restarts — Config
// fingerprints cannot cover function-valued fields.
func BoxBlobTemp(x [3]float64) float64 {
	r2 := (x[0]-0.4)*(x[0]-0.4) + (x[1]-0.6)*(x[1]-0.6) + (x[2]-0.3)*(x[2]-0.3)
	return (1 - x[2]) + 0.2*math.Exp(-r2/0.03)
}

// ShellBlobTemp is the canonical spherical-shell initial condition for
// the default R1=1, R2=2 shell: the conductive radial profile plus one
// off-axis Gaussian blob. Exported for the same reason as BoxBlobTemp.
func ShellBlobTemp(x [3]float64) float64 {
	rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
	cond := (2 - rad) / rad
	d2 := (x[0]-1.2)*(x[0]-1.2) + x[1]*x[1] + (x[2]-0.6)*(x[2]-0.6)
	return cond + 0.3*math.Exp(-d2/0.05)
}

// YieldingLaw is the three-layer viscosity of the paper's §VI:
//
//	z > 0.90        min( 10  exp(-6.9 T), sigma_y / (2 edot) )
//	0.90 >= z > 0.77       0.8 exp(-6.9 T)
//	z <= 0.77              50  exp(-6.9 T)
//
// simulating a plastically yielding lithosphere, an aesthenosphere and a
// stiff lower mantle.
func YieldingLaw(sigmaY float64) ViscosityLaw {
	return func(T, z, e2 float64) float64 {
		switch {
		case z > 0.9:
			v := 10 * math.Exp(-6.9*T)
			if sigmaY > 0 && e2 > 1e-300 {
				if y := sigmaY / (2 * e2); y < v {
					v = y
				}
			}
			return v
		case z > 0.77:
			return 0.8 * math.Exp(-6.9*T)
		default:
			return 50 * math.Exp(-6.9*T)
		}
	}
}

// Config sets up a simulation.
type Config struct {
	Dom          fem.Domain
	Ra           float64 // Rayleigh number
	InternalHeat float64 // gamma
	InitialTemp  func(x [3]float64) float64
	Visc         ViscosityLaw
	ViscMin      float64 // clamp (default 1e-6)
	ViscMax      float64 // clamp (default 1e6)

	// Conn switches the simulation from the axis-aligned unit box (nil:
	// a one-tree forest scaled by Dom, no node mapping) onto a multi-tree
	// forest with mapped element geometry: brick macro meshes, or the
	// paper's 24-tree cubed-sphere shell. Geom supplies the node mapping
	// (defaults to the trilinear tree map, or the shell projection when
	// Shell is set).
	Conn *forest.Connectivity
	Geom mesh.Geometry
	// Shell selects spherical-shell physics on a cubed-sphere forest:
	// radial gravity Ra*T*r_hat, radius-based depth for the viscosity
	// law, T=1 on the inner and T=0 on the outer boundary, and no-slip
	// velocity on both shell boundaries by default (see ShellSlip for
	// free-slip). Leaving Conn nil with Shell set picks the paper's
	// forest.CubedSphere(2).
	Shell          bool
	RInner, ROuter float64 // shell radii (default 1 and 2)
	// ShellSlip selects free-slip shell boundaries via rotated per-node
	// boundary frames (stokes.Options.Slip): "" keeps the no-slip
	// default, "top" frees the outer surface and keeps no-slip on the
	// inner one (the community "FS" setup of the Bunge benchmark cases),
	// "both" frees both boundaries — the rigid-rotation null space is
	// then projected out of every Stokes solve. Only meaningful with
	// Shell; part of the checkpoint fingerprint.
	ShellSlip string
	// SlipBC supplies an explicit free-slip marker (overrides the
	// ShellSlip presets; expert use on non-shell mapped domains). Not
	// fingerprinted — prefer ShellSlip for checkpointed runs.
	SlipBC stokes.SlipNormal

	BaseLevel   uint8 // initial uniform refinement
	MinLevel    uint8
	MaxLevel    uint8
	TargetElems int64 // element budget for MarkElements
	// InitAdapt is the number of initial solution-adaptive refinement
	// rounds New runs. Zero means "default" (2 rounds, or none when
	// Order == 2); to request exactly zero rounds set NoInitAdapt —
	// InitAdapt alone cannot express it because 0 is the default
	// sentinel.
	InitAdapt int
	// NoInitAdapt requests exactly zero initial adaptation rounds: the
	// mesh stays at the uniform BaseLevel until the first Adapt of the
	// time loop. This is what restored runs need (Restore never re-runs
	// initial adaptation) and what uniform-mesh studies want.
	NoInitAdapt bool

	AdaptEvery int     // time steps between adaptations (paper: 16)
	CFL        float64 // advective CFL number (default 0.5)
	Picard     int     // Picard iterations per Stokes solve (default 2)
	MinresTol  float64 // default 1e-6
	MinresMax  int     // default 500
	AMG        amg.Options
	// MatrixFree applies the coupled Stokes operator by fused per-element
	// loops instead of an assembled CSR (see stokes.Options.MatrixFree).
	MatrixFree bool
	// MatFree tunes the matrix-free apply (in-rank worker count); see
	// stokes.Options.MatFree.
	MatFree matfree.Options
	// Precond selects the velocity-block preconditioner: assembled AMG
	// (default) or the matrix-free geometric multigrid hierarchy.
	// Combined with MatrixFree the Stokes solve assembles no fine-level
	// matrix at all.
	Precond stokes.PrecondKind
	// GMG tunes the geometric hierarchy when Precond is PrecondGMG.
	GMG gmg.Options
	// Order selects the velocity element order: 0 or 1 for the default
	// stabilized equal-order Q1-Q1 pair, 2 for the Taylor-Hood Q2-Q1
	// pair with sum-factorized matrix-free kernels and p-coarsened GMG
	// (see stokes.Options.Order). Order 2 requires MatrixFree, Precond
	// == PrecondGMG and the one-tree box domain at a uniform
	// refinement level: MinLevel = MaxLevel = BaseLevel.
	Order int
	// LocalAMG selects per-rank block-Jacobi AMG hierarchies for the
	// velocity blocks instead of the default redundant hierarchy; see
	// stokes.Options.LocalAMG.
	LocalAMG bool
	// VelBC prescribes the velocity boundary condition of the Stokes
	// solve. Defaults to free-slip on the domain box.
	VelBC stokes.VelBC
}

func (c Config) withDefaults() Config {
	if c.Shell {
		if c.RInner == 0 {
			c.RInner = 1
		}
		if c.ROuter == 0 {
			c.ROuter = 2
		}
		if c.Conn == nil {
			c.Conn = forest.CubedSphere(2)
		}
		if c.Geom == nil {
			c.Geom = mesh.ShellGeometry{Conn: c.Conn, RInner: c.RInner, ROuter: c.ROuter}
		}
		switch c.ShellSlip {
		case "", "top", "both":
		default:
			panic(fmt.Sprintf("rhea: unknown Config.ShellSlip %q (want \"\", \"top\" or \"both\")", c.ShellSlip))
		}
		if c.SlipBC == nil && c.ShellSlip != "" {
			c.SlipBC = stokes.ShellSlipNormals(c.RInner, c.ROuter, c.ShellSlip == "both", true)
		}
		if c.VelBC == nil {
			switch c.ShellSlip {
			case "top":
				c.VelBC = stokes.RadialNoSlipInner(c.RInner, c.ROuter)
			case "both":
				// Every boundary node is a slip node; the VelBC constrains
				// nothing and the rotation null space is projected instead.
				c.VelBC = func([3]float64) ([3]bool, [3]float64) { return [3]bool{}, [3]float64{} }
			default:
				c.VelBC = stokes.RadialNoSlip(c.RInner, c.ROuter)
			}
		}
	}
	if c.ShellSlip != "" && !c.Shell {
		panic("rhea: Config.ShellSlip needs Shell (use SlipBC for custom mapped domains)")
	}
	if c.Conn != nil && c.Geom == nil {
		c.Geom = mesh.TrilinearGeometry{Conn: c.Conn}
	}
	if c.Conn == nil && c.Dom.Box == [3]float64{} {
		// A zero-size box makes every element Jacobian singular and the
		// whole run NaN; an unset Dom always means the unit box.
		c.Dom = fem.UnitDomain
	}
	if c.Conn != nil && !c.Shell {
		// Mapped non-shell domains: the box-equality FreeSlip default
		// cannot detect a mapped boundary, and Dom.Box is still used for
		// the depth coordinate and Nusselt normalization — fail fast and
		// keep those finite instead of silently dividing by zero.
		if c.VelBC == nil {
			panic("rhea: Config.Conn without Shell needs an explicit VelBC (box-equality defaults cannot see mapped boundaries)")
		}
		if c.Dom.Box == [3]float64{} {
			c.Dom = fem.UnitDomain
		}
	}
	if c.ViscMin == 0 {
		c.ViscMin = 1e-6
	}
	if c.ViscMax == 0 {
		c.ViscMax = 1e6
	}
	if c.AdaptEvery == 0 {
		c.AdaptEvery = 16
	}
	if c.CFL == 0 {
		c.CFL = 0.5
	}
	if c.Picard == 0 {
		c.Picard = 2
	}
	if c.MinresTol == 0 {
		c.MinresTol = 1e-6
	}
	if c.MinresMax == 0 {
		c.MinresMax = 500
	}
	switch {
	case c.NoInitAdapt || c.InitAdapt < 0:
		// Explicitly requested zero rounds (negative values are the
		// legacy spelling of "none"; NoInitAdapt is the documented one).
		c.InitAdapt = 0
	case c.InitAdapt == 0 && c.Order != 2:
		// Order 2 keeps the mesh at the uniform base level by default:
		// solution-adaptive rounds would introduce hanging faces the Q2
		// node layer rejects.
		c.InitAdapt = 2
	}
	if c.Visc == nil {
		c.Visc = func(_, _, _ float64) float64 { return 1 }
	}
	if c.VelBC == nil {
		c.VelBC = stokes.FreeSlip(c.Dom.Box)
	}
	if c.Order == 2 {
		if !c.MatrixFree || c.Precond != stokes.PrecondGMG {
			panic("rhea: Config.Order == 2 requires MatrixFree and Precond == PrecondGMG")
		}
		if c.Conn != nil {
			panic("rhea: Config.Order == 2 is limited to the one-tree box domain (Q2 extraction on multi-tree forests is a roadmap item)")
		}
		if c.MinLevel != c.BaseLevel || c.MaxLevel != c.BaseLevel {
			// Adaptation would leave hanging faces, which the Q2 node
			// layer rejects — after a full solve and advect, in the first
			// cycle's Adapt. Refuse the config here instead.
			panic(fmt.Sprintf("rhea: Config.Order == 2 needs a uniform mesh: MinLevel = MaxLevel = BaseLevel (got %d, %d, %d)",
				c.MinLevel, c.MaxLevel, c.BaseLevel))
		}
	}
	if c.TargetElems == 0 {
		trees := int64(1)
		if c.Conn != nil {
			trees = int64(c.Conn.NumTrees())
		}
		c.TargetElems = trees << (3 * c.BaseLevel)
	}
	return c
}

// conn returns the forest connectivity of the domain: Conn, or the
// one-tree unit cube when Conn is nil.
func (c Config) conn() *forest.Connectivity {
	if c.Conn != nil {
		return c.Conn
	}
	return forest.BrickConnectivity(1, 1, 1)
}

// Timings is the per-function wall-clock breakdown of the paper's Figure
// 10 (seconds, accumulated on this rank). The Stokes solver build is
// split into its mesh-dependent half (StokesSetup: layouts, Dirichlet
// gather, matrix-free constraint tables, GMG level meshes and
// transfer stencils — paid once per mesh adaptation when solver reuse is
// on) and its viscosity-dependent half (StokesUpdate: viscosity/force
// evaluation, operator kernels or CSR values, smoother diagonals, coarse
// AMG, Schur diagonal — paid every Picard iteration).
type Timings struct {
	NewTree        float64
	CoarsenRefine  float64 // CoarsenTree + RefineTree
	BalanceTree    float64
	PartitionTree  float64
	ExtractMesh    float64
	InterpolateFld float64 // InterpolateFields (projection)
	TransferFld    float64 // TransferFields (repartition shipping)
	MarkElements   float64
	TimeIntegrate  float64 // explicit advection-diffusion stepping
	StokesSetup    float64 // mesh-dependent solver setup (stokes.Setup)
	StokesUpdate   float64 // viscosity-dependent refresh (Solver.Update)
	MINRES         float64 // Krylov iterations including V-cycles

	// StokesSetups counts how many times the mesh-dependent setup ran;
	// with reuse enabled it equals 1 + the number of Adapt calls that
	// were followed by a solve.
	StokesSetups int
}

// AMRTotal sums the adaptivity-related components.
func (t Timings) AMRTotal() float64 {
	return t.CoarsenRefine + t.BalanceTree + t.PartitionTree + t.ExtractMesh +
		t.InterpolateFld + t.TransferFld + t.MarkElements
}

// Sim is a running mantle-convection simulation on one rank. Forest is
// the adapted forest of octrees behind Mesh: Config.Conn, or the one-tree
// unit cube when that is nil.
type Sim struct {
	Cfg    Config
	Rank   *sim.Rank
	Forest *forest.Forest
	Mesh   *mesh.Mesh

	T *la.Vec    // temperature (nodal)
	U [3]*la.Vec // velocity components (nodal)
	P *la.Vec    // pressure (nodal); output of the last Stokes solve

	Times   Timings
	Step    int
	TimeNow float64

	// solver is the persistent Stokes solver: its mesh-dependent half
	// (stokes.Setup) is cached across Picard iterations and timesteps
	// and invalidated by Adapt; each solve only refreshes the
	// viscosity-dependent half (Solver.Update).
	solver *stokes.Solver

	// adv is the cached transport problem (lumped mass, boundary flags
	// and values: all mesh- and config-dependent only); AdvectSteps
	// refreshes its corner velocities in place. Invalidated with the
	// solver.
	adv *advect.Problem

	// lastMinres is the last Stokes solve's result; nil until the first
	// solve, so a Sim that never solved has no convergence verdict.
	lastMinres *krylov.Result
}

// gatherSlotsMulti fills one slot-space buffer (mesh.Mesh.GX: owned
// nodes, then ghosts) per field in a single exchange round (collective);
// the corner table samples viscosity, buoyancy, advection velocity and
// diagnostics from them.
func (s *Sim) gatherSlotsMulti(vs ...*la.Vec) [][]float64 {
	owned := make([][]float64, len(vs))
	for f, v := range vs {
		owned[f] = v.Data
	}
	return s.Mesh.GatherSlots(owned...)
}

// New builds the initial adapted mesh and temperature field (collective).
func New(r *sim.Rank, cfg Config) *Sim {
	cfg = cfg.withDefaults()
	s := &Sim{Cfg: cfg, Rank: r}

	t0 := time.Now()
	s.Forest = forest.New(r, cfg.conn(), cfg.BaseLevel)
	s.Times.NewTree += time.Since(t0).Seconds()

	s.extract()
	s.setInitialTemp()
	for c := range s.U {
		s.U[c] = la.NewVec(s.Mesh.Layout())
	}
	s.P = la.NewVec(s.Mesh.Layout())

	// Initial solution-adaptive refinement rounds.
	for i := 0; i < cfg.InitAdapt; i++ {
		s.Adapt()
		s.setInitialTemp()
	}
	return s
}

// extract builds the mesh of the current forest and installs it
// (collective).
func (s *Sim) extract() {
	t0 := time.Now()
	m := mesh.Extract(s.Forest, s.Cfg.Geom)
	s.Times.ExtractMesh += time.Since(t0).Seconds()
	s.setMesh(m)
}

// setMesh installs a freshly extracted mesh: attaches the Q2 node layer
// when Order == 2 (collective then) and drops the cached Stokes solver
// and transport problem, which are bound to the old mesh. The caller
// puts the fields on the new mesh.
func (s *Sim) setMesh(m *mesh.Mesh) {
	s.Mesh = m
	if s.Cfg.Order == 2 {
		// The Q2 node layer panics on hanging faces — Order 2 runs are
		// restricted to uniform refinement levels.
		t0 := time.Now()
		m.Q2 = mesh.ExtractQ2(s.Forest, m)
		s.Times.ExtractMesh += time.Since(t0).Seconds()
	}
	s.solver = nil
	s.adv = nil
}

func (s *Sim) setInitialTemp() {
	s.T = la.NewVec(s.Mesh.Layout())
	for i := range s.Mesh.OwnedPos {
		s.T.Data[i] = s.Cfg.InitialTemp(fem.NodeCoord(s.Mesh, s.Cfg.Dom, i))
	}
}

// TempBC returns the temperature boundary condition: T=1 at the bottom
// (the inner shell boundary on spherical domains), T=0 at the surface
// (outer shell), insulated sides.
func (s *Sim) TempBC() fem.ScalarBC {
	if s.Cfg.Shell {
		rin, rout := s.Cfg.RInner, s.Cfg.ROuter
		tol := 1e-9 * rout
		return func(x [3]float64) (float64, bool) {
			r := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
			if math.Abs(r-rin) < tol {
				return 1, true
			}
			if math.Abs(r-rout) < tol {
				return 0, true
			}
			return 0, false
		}
	}
	// Tolerance scaled by the vertical extent, like the shell branch: on
	// mapped non-shell domains node coordinates come through the
	// trilinear geometry map, whose interpolation weights round, so a
	// top-face node can land at 1-1ulp and exact equality would silently
	// drop its Dirichlet row.
	top := s.Cfg.Dom.Box[2]
	tol := 1e-9 * top
	return func(x [3]float64) (float64, bool) {
		if math.Abs(x[2]) < tol {
			return 1, true
		}
		if math.Abs(x[2]-top) < tol {
			return 0, true
		}
		return 0, false
	}
}

// Adapt runs one full mesh adaptation pipeline — MarkElements, then the
// AdaptFields stage sequence — and carries the temperature, velocity and
// pressure fields to the new mesh, re-imposing the temperature boundary
// values there (collective).
func (s *Sim) Adapt() AdaptStats {
	t0 := time.Now()
	eta := errind.Variation(s.Mesh, s.T)
	marks := errind.MarkElements(s.Forest, eta, s.Cfg.TargetElems, errind.Options{
		MaxLevel: s.Cfg.MaxLevel, MinLevel: s.Cfg.MinLevel,
	})
	s.Times.MarkElements += time.Since(t0).Seconds()

	m, f, st := AdaptFields(s.Forest, s.Mesh, []*la.Vec{s.T, s.U[0], s.U[1], s.U[2], s.P}, marks, &s.Times)
	s.setMesh(m)
	s.T, s.U, s.P = f[0], [3]*la.Vec{f[1], f[2], f[3]}, f[4]

	t0 = time.Now()
	bc := s.TempBC()
	for i := range m.OwnedPos {
		if v, is := bc(fem.NodeCoord(m, s.Cfg.Dom, i)); is {
			s.T.Data[i] = v
		}
	}
	s.Times.InterpolateFld += time.Since(t0).Seconds()
	return st
}

// ElementViscosity evaluates the viscosity law per local element from the
// current temperature and velocity fields (collective). Corner values are
// sampled through the mesh's node slots and ghost plan, so repeated
// Picard evaluations on one mesh build nothing.
func (s *Sim) ElementViscosity() []float64 {
	eta, _ := s.viscosityAndBuoyancy(false)
	return eta
}

// viscosityAndBuoyancy evaluates the per-element viscosity and (when
// wantForce is set) the buoyancy body force at element corners in one
// pass (collective): the temperature and velocity are gathered through
// the mesh's ghost plan and each element's corners are resolved once. This
// is the whole per-Picard-iteration field evaluation of the time loop.
// On the box the force is Ra*T*e_z and depth comes from the z
// coordinate; on the shell the force is Ra*T*r_hat and depth is the
// radial coordinate (0 at the inner boundary, 1 at the outer); strain
// rates use the center Jacobian on mapped meshes.
func (s *Sim) viscosityAndBuoyancy(wantForce bool) ([]float64, [][8][3]float64) {
	bufs := s.gatherSlotsMulti(s.T, s.U[0], s.U[1], s.U[2])
	tb := bufs[0]
	ub := [3][]float64{bufs[1], bufs[2], bufs[3]}
	var force [][8][3]float64
	if wantForce {
		force = make([][8][3]float64, len(s.Mesh.Leaves))
	}
	out := make([]float64, len(s.Mesh.Leaves))
	xi := [3]float64{0.5, 0.5, 0.5}
	var sgc [8][3]float64
	for c := 0; c < 8; c++ {
		sgc[c] = fem.ShapeGrad(c, xi)
	}
	geos := fem.ElemGeoms(s.Mesh) // nil on axis-aligned meshes
	for ei, leaf := range s.Mesh.Leaves {
		// Mid-point shape gradients: constant-h scaling or the cached
		// mapped center Jacobian.
		var sg [8][3]float64
		var center [3]float64
		if geos != nil {
			sg = geos[ei].Gc
			center = geos[ei].Center
		} else {
			h := s.Cfg.Dom.ElemSize(leaf)
			for c := 0; c < 8; c++ {
				for j := 0; j < 3; j++ {
					sg[c][j] = sgc[c][j] / h[j]
				}
			}
		}
		var Tc float64
		var grad [3][3]float64
		for c := 0; c < 8; c++ {
			co := &s.Mesh.Corners[ei][c]
			var tv float64
			for k := 0; k < int(co.N); k++ {
				tv += co.W[k] * tb[co.Slot[k]]
			}
			Tc += tv / 8
			if wantForce {
				if s.Cfg.Shell {
					x := s.Mesh.X[ei][c]
					rad := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
					f := s.Cfg.Ra * tv / rad
					force[ei][c] = [3]float64{f * x[0], f * x[1], f * x[2]}
				} else {
					force[ei][c] = [3]float64{0, 0, s.Cfg.Ra * tv}
				}
			}
			for d := 0; d < 3; d++ {
				var uv float64
				for k := 0; k < int(co.N); k++ {
					uv += co.W[k] * ub[d][co.Slot[k]]
				}
				for j := 0; j < 3; j++ {
					grad[d][j] += uv * sg[c][j]
				}
			}
		}
		// Second invariant of the strain rate tensor.
		var e2 float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				eij := 0.5 * (grad[i][j] + grad[j][i])
				e2 += eij * eij
			}
		}
		e2 = math.Sqrt(0.5 * e2)
		var zc float64
		switch {
		case s.Cfg.Shell:
			rc := math.Sqrt(center[0]*center[0] + center[1]*center[1] + center[2]*center[2])
			zc = (rc - s.Cfg.RInner) / (s.Cfg.ROuter - s.Cfg.RInner)
		case geos != nil:
			zc = center[2] / s.Cfg.Dom.Box[2]
		default:
			zc = s.Cfg.Dom.ElemCenter(leaf)[2] / s.Cfg.Dom.Box[2]
		}
		v := s.Cfg.Visc(Tc, zc, e2)
		if v < s.Cfg.ViscMin {
			v = s.Cfg.ViscMin
		}
		if v > s.Cfg.ViscMax {
			v = s.Cfg.ViscMax
		}
		out[ei] = v
	}
	return out, force
}

// stokesOptions maps the Config onto the Stokes solver options.
func (s *Sim) stokesOptions() stokes.Options {
	return stokes.Options{
		AMG: s.Cfg.AMG, MatrixFree: s.Cfg.MatrixFree, MatFree: s.Cfg.MatFree,
		Precond: s.Cfg.Precond, GMG: s.Cfg.GMG, LocalAMG: s.Cfg.LocalAMG,
		Order: s.Cfg.Order, Slip: s.Cfg.SlipBC,
	}
}

// SolveStokes updates the velocity and pressure from the current
// temperature with Picard iteration on the strain-rate-dependent
// viscosity (collective). The mesh-dependent solver setup is cached
// across Picard iterations and timesteps until the next Adapt; each
// iteration only refreshes the viscosity-dependent half and runs MINRES
// from zero, so the result depends on the mesh, T and (where the
// viscosity law reads the strain rate) U alone, never on the previous
// solve's P. It returns the last MINRES result.
func (s *Sim) SolveStokes() krylov.Result {
	var res krylov.Result
	for pic := 0; pic < s.Cfg.Picard; pic++ {
		if s.solver == nil {
			t0 := time.Now()
			s.solver = stokes.Setup(s.Mesh, s.Cfg.Dom, s.Cfg.VelBC, s.stokesOptions())
			s.Times.StokesSetup += time.Since(t0).Seconds()
			s.Times.StokesSetups++
		}
		t0 := time.Now()
		eta, force := s.viscosityAndBuoyancy(true)
		s.solver.Update(eta, force)
		s.Times.StokesUpdate += time.Since(t0).Seconds()

		t0 = time.Now()
		var x *la.Vec
		x, res = s.solver.Solve(s.Cfg.MinresTol, s.Cfg.MinresMax)
		s.Times.MINRES += time.Since(t0).Seconds()
		s.U, s.P = s.solver.SplitSolution(x)
	}
	s.lastMinres = &res
	return res
}

// LastMinres returns the most recent Stokes solve result (the zero value
// before the first solve).
func (s *Sim) LastMinres() krylov.Result {
	if s.lastMinres == nil {
		return krylov.Result{}
	}
	return *s.lastMinres
}

// AdvectSteps advances the temperature n explicit steps with the current
// velocity field, returning the time step used (collective).
func (s *Sim) AdvectSteps(n int) float64 {
	t0 := time.Now()
	if s.adv == nil {
		var src func(x [3]float64) float64
		if s.Cfg.InternalHeat != 0 {
			g := s.Cfg.InternalHeat
			src = func(_ [3]float64) float64 { return g }
		}
		vel := make([][8][3]float64, len(s.Mesh.Leaves))
		s.adv = advect.New(s.Mesh, s.Cfg.Dom, 1 /* nondimensional kappa */, vel, src, s.TempBC())
	}
	p := s.adv
	s.elemVelocity(p.Vel)
	dt := p.StableDt(s.Cfg.CFL)
	for i := 0; i < n; i++ {
		p.Step(s.T, dt)
		s.TimeNow += dt
		s.Step++
	}
	s.Times.TimeIntegrate += time.Since(t0).Seconds()
	return dt
}

// elemVelocity samples the nodal velocity at the element corners into
// out, one entry per local element (collective).
func (s *Sim) elemVelocity(out [][8][3]float64) {
	ub := s.gatherSlotsMulti(s.U[0], s.U[1], s.U[2])
	for ei := range out {
		for c := 0; c < 8; c++ {
			co := &s.Mesh.Corners[ei][c]
			for d := 0; d < 3; d++ {
				out[ei][c][d] = co.Value(ub[d])
			}
		}
	}
}

// RunCycle performs one paper-style simulation cycle: a Stokes solve,
// AdaptEvery explicit transport steps, then a mesh adaptation. It returns
// the adaptation statistics.
func (s *Sim) RunCycle() AdaptStats {
	s.SolveStokes()
	s.AdvectSteps(s.Cfg.AdaptEvery)
	return s.Adapt()
}

// ErrNotConverged marks a cycle whose last Stokes solve stopped at
// MinresMax iterations without reaching MinresTol.
var ErrNotConverged = errors.New("rhea: Stokes solve did not converge")

// ErrNonFinite marks a cycle whose Nusselt number or rms velocity is NaN
// or infinite: some temperature or velocity entry is.
var ErrNonFinite = errors.New("rhea: non-finite diagnostics")

// Verdict is what a cycle reports: its diagnostics, the stop decision
// every rank agreed on, and its health. Diagnose returns the same
// Verdict on every rank.
type Verdict struct {
	// Nu is the Nusselt number: the volume-averaged heat flux along the
	// gravity direction (advective u.g_hat*T plus conductive -g_hat.grad
	// T), normalized by the conductive flux of the motionless state,
	// with midpoint quadrature per element. The motionless conductive
	// profile gives exactly 1 in the continuum limit; vigorous convection
	// pushes it up.
	//
	// On the box (ΔT = 1, κ = 1): Nu = ∫ (u_z T - dT/dz) dV / (Lx Ly),
	// where a mapped brick takes V/H for Lx Ly. On the shell the flux is
	// radial and the normalization is the conductive profile
	// T_c(r) = R1(R2-r)/(r(R2-R1)), whose flux density is
	// R1 R2 / (r^2 (R2-R1)):
	//
	//	Nu = ∫ (u_r T - dT/dr) dV / ∫ R1 R2 / (r^2 (R2-R1)) dV.
	Nu float64
	// Vrms is the volume-root-mean-square velocity magnitude
	// sqrt( (1/V) ∫ |u|^2 dV ), with midpoint quadrature per element.
	Vrms float64
	// Stop is true when any rank passed stop to Diagnose.
	Stop bool
	// Err is nil for a healthy cycle. Otherwise it wraps ErrNonFinite,
	// or ErrNotConverged when the last Stokes solve did not converge (a
	// Sim that has not solved yet has no convergence verdict).
	Err error
}

// Diagnose evaluates the current state in one gather of T and U, one
// sweep over the elements that reads each corner once, and one
// reduction, which also carries this rank's stop request (collective).
// The per-element sums and their rank-order fold are those of the
// separate Nusselt and rms-velocity sweeps it replaces, bit for bit.
func (s *Sim) Diagnose(stop bool) Verdict {
	bufs := s.gatherSlotsMulti(s.T, s.U[0], s.U[1], s.U[2])
	tb := bufs[0]
	ub := [3][]float64{bufs[1], bufs[2], bufs[3]}
	geos := fem.ElemGeoms(s.Mesh) // nil on axis-aligned meshes
	// Axis-aligned elements: z-derivatives of the shape functions at the
	// element center on the reference cube.
	var sgz [8]float64
	for c := range sgz {
		sgz[c] = fem.ShapeGrad(c, [3]float64{0.5, 0.5, 0.5})[2]
	}
	rin, rout := s.Cfg.RInner, s.Cfg.ROuter
	// flux, shell conductive reference, |u|^2 vol, vol, stop requests
	var sum [5]float64
	for ei, leaf := range s.Mesh.Leaves {
		var h [3]float64
		var vol float64
		if geos != nil {
			vol = geos[ei].DetC
		} else {
			h = s.Cfg.Dom.ElemSize(leaf)
			vol = h[0] * h[1] * h[2]
		}
		var Tc float64
		var uc, gradT [3]float64
		for c := 0; c < 8; c++ {
			co := &s.Mesh.Corners[ei][c]
			var tv float64
			for k := 0; k < int(co.N); k++ {
				tv += co.W[k] * tb[co.Slot[k]]
			}
			Tc += tv / 8
			for d := 0; d < 3; d++ {
				var uv float64
				for k := 0; k < int(co.N); k++ {
					uv += co.W[k] * ub[d][co.Slot[k]]
				}
				uc[d] += uv / 8
			}
			if geos != nil {
				for d := 0; d < 3; d++ {
					gradT[d] += tv * geos[ei].Gc[c][d]
				}
			} else {
				gradT[2] += tv * sgz[c] / h[2]
			}
		}
		if s.Cfg.Shell {
			x := geos[ei].Center
			rc := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
			var ur, dTdr float64
			for d := 0; d < 3; d++ {
				ur += uc[d] * x[d] / rc
				dTdr += gradT[d] * x[d] / rc
			}
			sum[0] += (ur*Tc - dTdr) * vol
			sum[1] += rin * rout / (rc * rc * (rout - rin)) * vol
		} else {
			sum[0] += (uc[2]*Tc - gradT[2]) * vol
		}
		var u2 float64
		for d := 0; d < 3; d++ {
			u2 += uc[d] * uc[d]
		}
		sum[2] += u2 * vol
		sum[3] += vol
	}
	if stop {
		sum[4] = 1
	}
	tot := s.Rank.AllreduceVec(sum[:])

	v := Verdict{Stop: tot[4] > 0}
	b := s.Cfg.Dom.Box
	switch {
	case s.Cfg.Shell:
		v.Nu = tot[0] / tot[1]
	case geos != nil:
		// ∫ (ΔT/H) dV = V/H with H = Dom.Box[2], the vertical extent the
		// viscosity depth coordinate uses; Lx Ly on a rectangular brick.
		v.Nu = tot[0] / (tot[3] / b[2])
	default:
		v.Nu = tot[0] / (b[0] * b[1])
	}
	if geos != nil {
		v.Vrms = math.Sqrt(tot[2] / tot[3])
	} else {
		v.Vrms = math.Sqrt(tot[2] / (b[0] * b[1] * b[2]))
	}
	switch res := s.lastMinres; {
	case !finite(v.Nu) || !finite(v.Vrms):
		v.Err = fmt.Errorf("%w: Nu = %g, Vrms = %g", ErrNonFinite, v.Nu, v.Vrms)
	case res != nil && !res.Converged:
		v.Err = fmt.Errorf("%w: residual %g after %d MINRES iterations", ErrNotConverged, res.Residual, res.Iterations)
	}
	return v
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Nusselt returns Diagnose's Nusselt number (collective).
func (s *Sim) Nusselt() float64 { return s.Diagnose(false).Nu }

// RMSVelocity returns Diagnose's rms velocity (collective).
func (s *Sim) RMSVelocity() float64 { return s.Diagnose(false).Vrms }
