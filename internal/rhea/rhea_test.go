package rhea

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/sim"
	"rhea/internal/stokes"
)

func blobConfig() Config {
	return Config{
		Dom: fem.UnitDomain,
		Ra:  1e4,
		InitialTemp: func(x [3]float64) float64 {
			// Conductive profile plus a hot blob near the bottom center.
			r2 := (x[0]-0.5)*(x[0]-0.5) + (x[1]-0.5)*(x[1]-0.5) + (x[2]-0.25)*(x[2]-0.25)
			return (1 - x[2]) + 0.3*math.Exp(-r2/0.02)
		},
		Visc:        TemperatureDependent(1, 0),
		BaseLevel:   2,
		MinLevel:    1,
		MaxLevel:    4,
		TargetElems: 300,
		AdaptEvery:  4,
		Picard:      1,
		MinresTol:   1e-6,
		MinresMax:   400,
		InitAdapt:   1,
	}
}

func TestYieldingLaw(t *testing.T) {
	law := YieldingLaw(0.5)
	// Lithosphere, cold, low strain: temperature-dependent branch.
	if v := law(0, 0.95, 1e-9); math.Abs(v-10) > 1e-12 {
		t.Errorf("cold lithosphere viscosity %v, want 10", v)
	}
	// Lithosphere under high strain: yields to sigma_y/(2 edot).
	if v := law(0, 0.95, 10); math.Abs(v-0.025) > 1e-12 {
		t.Errorf("yielded viscosity %v, want 0.025", v)
	}
	// Aesthenosphere.
	if v := law(1, 0.8, 0); math.Abs(v-0.8*math.Exp(-6.9)) > 1e-12 {
		t.Errorf("aesthenosphere %v", v)
	}
	// Lower mantle: no yielding even at high strain.
	if v := law(0, 0.5, 100); math.Abs(v-50) > 1e-12 {
		t.Errorf("lower mantle %v, want 50", v)
	}
	// Hot material is weaker than cold in every layer.
	if law(1, 0.95, 0) >= law(0, 0.95, 0) {
		t.Error("viscosity not decreasing with temperature")
	}
}

func TestSimInitialization(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		s := New(r, blobConfig())
		n := s.Forest.NumGlobal()
		if n < 64 {
			t.Errorf("too few elements after init: %d", n)
		}
		// Initial adaptation should have created multiple levels.
		lo, hi := s.Forest.MinMaxLevel()
		if hi <= lo {
			t.Errorf("no adaptive structure: levels %d..%d", lo, hi)
		}
		// Temperature bounds.
		for _, v := range s.T.Data {
			if v < -0.01 || v > 1.4 {
				t.Fatalf("initial T out of range: %v", v)
			}
		}
	})
}

func TestStokesDevelopsFlow(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		s := New(r, blobConfig())
		res := s.SolveStokes()
		if !res.Converged {
			t.Fatalf("Stokes MINRES failed: %v iterations, residual %v", res.Iterations, res.Residual)
		}
		if v := s.RMSVelocity(); v <= 0 {
			t.Errorf("no flow developed: Vrms = %v", v)
		}
		if s.Times.MINRES <= 0 || s.Times.StokesSetup <= 0 || s.Times.StokesUpdate <= 0 {
			t.Errorf("timings not recorded: %+v", s.Times)
		}
		if s.Times.StokesSetups != 1 {
			t.Errorf("expected exactly one mesh-dependent setup, got %d", s.Times.StokesSetups)
		}
	})
}

func TestPlumeRises(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		cfg := blobConfig()
		s := New(r, cfg)
		// Measure blob height via temperature-excess-weighted centroid.
		height := func() float64 {
			var wsum, zsum float64
			for i, pos := range s.Mesh.OwnedPos {
				x := s.Cfg.Dom.Coord(pos)
				excess := s.T.Data[i] - (1 - x[2]) // subtract conductive profile
				if excess > 0.05 {
					wsum += excess
					zsum += excess * x[2]
				}
			}
			gw := r.Allreduce(wsum, sim.OpSum)
			gz := r.Allreduce(zsum, sim.OpSum)
			if gw == 0 {
				return 0
			}
			return gz / gw
		}
		h0 := height()
		for cyc := 0; cyc < 2; cyc++ {
			s.SolveStokes()
			s.AdvectSteps(4)
			s.Adapt()
		}
		h1 := height()
		if h1 <= h0 {
			t.Errorf("hot blob did not rise: %v -> %v", h0, h1)
		}
		// Temperature stays physical.
		for _, v := range s.T.Data {
			if math.IsNaN(v) || v < -0.3 || v > 1.7 {
				t.Fatalf("temperature out of bounds: %v", v)
			}
		}
	})
}

// The full convection cycle must run identically well on the matrix-free
// Stokes path, including variable (temperature-dependent) viscosity and
// mesh adaptation between solves.
func TestMatrixFreeCycleDevelopsFlow(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		cfg := blobConfig()
		cfg.Visc = TemperatureDependent(1, 2)
		cfg.MatrixFree = true
		s := New(r, cfg)
		res := s.SolveStokes()
		if !res.Converged {
			t.Fatalf("matrix-free Stokes MINRES failed: %v its, residual %v",
				res.Iterations, res.Residual)
		}
		if v := s.RMSVelocity(); v <= 0 {
			t.Errorf("no flow developed: Vrms = %v", v)
		}
		s.AdvectSteps(3)
		s.Adapt()
		if res = s.SolveStokes(); !res.Converged {
			t.Fatalf("matrix-free solve failed after adaptation: %v", res.Residual)
		}
		for _, v := range s.T.Data {
			if math.IsNaN(v) {
				t.Fatal("NaN temperature in matrix-free run")
			}
		}
	})
}

// The fully matrix-free configuration (matfree apply + GMG precond) must
// drive the application loop — Stokes solve, transport, adaptation,
// re-solve on the adapted mesh — without assembling any fine-level CSR.
func TestGMGCycleDevelopsFlow(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		cfg := blobConfig()
		cfg.Visc = TemperatureDependent(1, 2)
		cfg.MatrixFree = true
		cfg.Precond = stokes.PrecondGMG
		s := New(r, cfg)
		res := s.SolveStokes()
		if !res.Converged {
			t.Fatalf("GMG Stokes MINRES failed: %v its, residual %v",
				res.Iterations, res.Residual)
		}
		if v := s.RMSVelocity(); v <= 0 {
			t.Errorf("no flow developed: Vrms = %v", v)
		}
		s.AdvectSteps(3)
		s.Adapt()
		if res = s.SolveStokes(); !res.Converged {
			t.Fatalf("GMG solve failed after adaptation: %v", res.Residual)
		}
		for _, v := range s.T.Data {
			if math.IsNaN(v) {
				t.Fatal("NaN temperature in GMG run")
			}
		}
	})
}

func TestAdaptStatsConsistent(t *testing.T) {
	sim.Run(3, func(r *sim.Rank) {
		s := New(r, blobConfig())
		st := s.Adapt()
		// Element bookkeeping: N' = N + 7 R - (7/8) C + B.
		want := st.ElementsPrev + 7*st.Refined - 7*st.Coarsened/8 + st.BalanceAdded
		if st.ElementsNow != want {
			t.Errorf("element count identity violated: now %d, want %d (%+v)", st.ElementsNow, want, st)
		}
		if st.Unchanged < 0 {
			t.Errorf("negative unchanged count: %+v", st)
		}
		var tot int64
		for _, c := range st.LevelCounts {
			tot += c
		}
		if tot != st.ElementsNow {
			t.Errorf("level counts sum %d != %d", tot, st.ElementsNow)
		}
	})
}

func TestAdaptTracksTarget(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		cfg := blobConfig()
		cfg.TargetElems = 400
		s := New(r, cfg)
		for i := 0; i < 3; i++ {
			s.SolveStokes()
			s.AdvectSteps(3)
			st := s.Adapt()
			if f := float64(st.ElementsNow); f > 3*float64(cfg.TargetElems) || f < 0.2*float64(cfg.TargetElems) {
				t.Errorf("cycle %d: %d elements for target %d", i, st.ElementsNow, cfg.TargetElems)
			}
		}
	})
}

func TestYieldingRunStable(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		cfg := blobConfig()
		cfg.Visc = YieldingLaw(1e3)
		cfg.Ra = 1e5
		cfg.Picard = 2
		s := New(r, cfg)
		res := s.SolveStokes()
		if !res.Converged {
			t.Fatalf("yielding Stokes failed: %+v", res.Residual)
		}
		s.AdvectSteps(3)
		for _, v := range s.T.Data {
			if math.IsNaN(v) {
				t.Fatal("NaN temperature in yielding run")
			}
		}
	})
}

// TestBoxRunsOnForest pins the single mesh pipeline: a default box Config
// runs on a one-tree forest with no node mapping — so Mesh.X stays nil and
// every discretization layer keeps its axis-aligned kernels — every
// element carries its tree id, and an Order-2 box still builds its Q2 node
// layer from that forest and solves at two ranks.
func TestBoxRunsOnForest(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		s := New(r, Config{InitialTemp: BoxBlobTemp, BaseLevel: 2, MaxLevel: 3, TargetElems: 150})
		if s.Forest == nil || s.Forest.Conn.NumTrees() != 1 {
			t.Fatalf("box Sim has no one-tree forest: %+v", s.Forest)
		}
		if s.Cfg.Conn != nil || s.Cfg.Geom != nil || s.Mesh.Geom != nil || s.Mesh.X != nil {
			t.Error("box mesh carries a node mapping; axis-aligned kernels would be lost")
		}
		if s.Mesh.Conn != s.Forest.Conn || len(s.Mesh.Trees) != len(s.Mesh.Leaves) ||
			len(s.Mesh.OwnedCell) != s.Mesh.NumOwned {
			t.Errorf("box mesh lacks forest bookkeeping: %d tree ids for %d leaves, %d owner cells for %d nodes",
				len(s.Mesh.Trees), len(s.Mesh.Leaves), len(s.Mesh.OwnedCell), s.Mesh.NumOwned)
		}
		st := s.Adapt()
		if st.ElementsNow != s.Forest.NumGlobal() {
			t.Errorf("AdaptStats.ElementsNow = %d, forest holds %d", st.ElementsNow, s.Forest.NumGlobal())
		}

		q := New(r, q2Config())
		if q.Mesh.Q2 == nil || q.Mesh.X != nil {
			t.Fatal("Order-2 box did not build an axis-aligned Q2 node layer")
		}
		if res := q.SolveStokes(); !res.Converged {
			t.Errorf("Order-2 box solve did not converge: %+v", res)
		}
	})
}
