package rhea

// Regression tests for the time-loop correctness fixes: tolerance-based
// box temperature BCs on mapped domains, the mapped-brick Nusselt
// branch, and the explicit NoInitAdapt request.

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/morton"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

// freeSlipTol is a tolerance-based free-slip box BC for mapped brick
// domains, where node coordinates come through the trilinear geometry
// map and exact box-face equality cannot be trusted.
func freeSlipTol(box [3]float64) stokes.VelBC {
	return func(x [3]float64) (fixed [3]bool, vals [3]float64) {
		for i := 0; i < 3; i++ {
			tol := 1e-9 * box[i]
			if math.Abs(x[i]) < tol || math.Abs(x[i]-box[i]) < tol {
				fixed[i] = true
			}
		}
		return
	}
}

// brickConfig is a 2x1x1 brick forest covering [0,2]x[0,1]x[0,1] with
// mapped (trilinear) element geometry — the smallest domain where the
// axis-aligned box arithmetic and the mapped geometry disagree.
func brickConfig() Config {
	return Config{
		Conn:  forest.BrickConnectivity(2, 1, 1),
		Dom:   fem.Domain{Box: [3]float64{2, 1, 1}},
		VelBC: freeSlipTol([3]float64{2, 1, 1}),
		Ra:    1e3,
		InitialTemp: func(x [3]float64) float64 {
			return 1 - x[2]
		},
		BaseLevel:   1,
		MinLevel:    1,
		MaxLevel:    2,
		NoInitAdapt: true,
		AdaptEvery:  2,
		Picard:      1,
		MinresTol:   1e-8,
	}
}

// TestMappedBrickTempBCPinned: on a mapped brick, top- and bottom-face
// nodes must be recognized by TempBC (the trilinear map rounds top-face
// coordinates to 1-1ulp, which the former exact-equality test silently
// missed) and the temperature must actually be pinned there after
// transport steps and an adaptation.
func TestMappedBrickTempBCPinned(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		s := New(r, brickConfig())
		bc := s.TempBC()
		top, bottom := 0, 0
		for i, pos := range s.Mesh.OwnedPos {
			x := fem.NodeCoord(s.Mesh, s.Cfg.Dom, i)
			switch pos[2] {
			case 0:
				v, is := bc(x)
				if !is || v != 1 {
					t.Errorf("rank %d: bottom node %d at %v not pinned to 1 (is=%v v=%v)", r.ID(), i, x, is, v)
				}
				bottom++
			case uint32(morton.RootLen):
				v, is := bc(x)
				if !is || v != 0 {
					t.Errorf("rank %d: top node %d at %v not pinned to 0 (is=%v v=%v)", r.ID(), i, x, is, v)
				}
				top++
			}
		}
		// The time loop must keep the boundary rows pinned: transport
		// steps and a full adaptation round later, boundary temperatures
		// are exactly the Dirichlet values.
		s.SolveStokes()
		s.AdvectSteps(2)
		s.Adapt()
		for i, pos := range s.Mesh.OwnedPos {
			if pos[2] == 0 && s.T.Data[i] != 1 {
				t.Errorf("rank %d: bottom temperature %v != 1 after cycle", r.ID(), s.T.Data[i])
			}
			if pos[2] == uint32(morton.RootLen) && s.T.Data[i] != 0 {
				t.Errorf("rank %d: top temperature %v != 0 after cycle", r.ID(), s.T.Data[i])
			}
		}
		if n := r.AllreduceInt64(int64(top)); n == 0 {
			t.Errorf("no top-face nodes found — test is vacuous")
		}
		if n := r.AllreduceInt64(int64(bottom)); n == 0 {
			t.Errorf("no bottom-face nodes found — test is vacuous")
		}
	})
}

// TestMappedBrickNusseltConductive: the motionless conductive state has
// Nu = 1 by definition. On the 2x1x1 mapped brick the former axis-
// aligned branch doubled every element volume (ElemSize scales by
// Dom.Box, but brick trees are unit cubes), reporting Nu = 2.
func TestMappedBrickNusseltConductive(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		s := New(r, brickConfig()) // T = 1-z, U = 0
		nu := s.Nusselt()
		if math.Abs(nu-1) > 1e-10 {
			t.Errorf("rank %d: conductive Nusselt %v, want 1", r.ID(), nu)
		}
	})
}

// TestMappedIdentityBrickNusselt compares a mapped-identity brick (one
// unit-cube tree, trilinear map = identity) against the unmapped box
// path (same tree, Geom == nil) on the same discretization, same temperature field and same
// synthetic velocity: the two Nusselt branches must agree.
func TestMappedIdentityBrickNusselt(t *testing.T) {
	initT := func(x [3]float64) float64 {
		return (1 - x[2]) + 0.2*math.Exp(-((x[0]-0.4)*(x[0]-0.4)+(x[1]-0.6)*(x[1]-0.6)+(x[2]-0.3)*(x[2]-0.3))/0.1)
	}
	uz := func(x [3]float64) float64 {
		return math.Sin(math.Pi*x[2]) * math.Cos(math.Pi*x[0]) * (1 + 0.5*x[1])
	}
	run := func(cfg Config) (nu float64) {
		sim.Run(2, func(r *sim.Rank) {
			s := New(r, cfg)
			for i := range s.Mesh.OwnedPos {
				s.U[2].Data[i] = uz(fem.NodeCoord(s.Mesh, s.Cfg.Dom, i))
			}
			n := s.Nusselt()
			if r.ID() == 0 {
				nu = n
			}
		})
		return nu
	}
	boxCfg := Config{
		Dom:         fem.UnitDomain,
		InitialTemp: initT,
		BaseLevel:   2,
		MinLevel:    2,
		MaxLevel:    2,
		NoInitAdapt: true,
		Picard:      1,
	}
	brickCfg := boxCfg
	brickCfg.Conn = forest.BrickConnectivity(1, 1, 1)
	brickCfg.VelBC = freeSlipTol([3]float64{1, 1, 1})
	nuBox, nuBrick := run(boxCfg), run(brickCfg)
	t.Logf("box Nu=%.15f mapped-identity brick Nu=%.15f", nuBox, nuBrick)
	if math.Abs(nuBox-nuBrick) > 1e-10 {
		t.Errorf("mapped-identity brick Nusselt %v differs from box answer %v", nuBrick, nuBox)
	}
}

// TestNoInitAdapt covers the InitAdapt defaulting semantics: zero still
// means "default 2", NoInitAdapt (or a negative count, the legacy
// spelling) means exactly zero rounds, and explicit positive counts are
// untouched.
func TestNoInitAdapt(t *testing.T) {
	base := Config{Dom: fem.UnitDomain, InitialTemp: func([3]float64) float64 { return 0 }}
	if got := base.withDefaults().InitAdapt; got != 2 {
		t.Errorf("zero-valued InitAdapt defaulted to %d, want 2", got)
	}
	pos := base
	pos.InitAdapt = 5
	if got := pos.withDefaults().InitAdapt; got != 5 {
		t.Errorf("explicit InitAdapt 5 became %d", got)
	}
	no := base
	no.NoInitAdapt = true
	if got := no.withDefaults().InitAdapt; got != 0 {
		t.Errorf("NoInitAdapt yielded %d rounds, want 0", got)
	}
	neg := base
	neg.InitAdapt = -1
	if got := neg.withDefaults().InitAdapt; got != 0 {
		t.Errorf("negative InitAdapt yielded %d rounds, want 0", got)
	}

	// A NoInitAdapt run really skips the initial refinement: the mesh
	// stays at the uniform base level even with budget to refine.
	cfg := Config{
		Dom: fem.UnitDomain,
		Ra:  1e4,
		InitialTemp: func(x [3]float64) float64 {
			return (1 - x[2]) + 0.3*math.Exp(-((x[0]-0.5)*(x[0]-0.5)+(x[1]-0.5)*(x[1]-0.5)+(x[2]-0.5)*(x[2]-0.5))/0.02)
		},
		BaseLevel:   2,
		MinLevel:    1,
		MaxLevel:    4,
		TargetElems: 500,
		NoInitAdapt: true,
	}
	sim.Run(2, func(r *sim.Rank) {
		s := New(r, cfg)
		if n := s.Forest.NumGlobal(); n != 64 {
			t.Errorf("NoInitAdapt mesh has %d elements, want the uniform 64", n)
		}
		lo, hi := s.Forest.MinMaxLevel()
		if lo != 2 || hi != 2 {
			t.Errorf("NoInitAdapt mesh levels %d..%d, want uniform 2", lo, hi)
		}
	})
}
