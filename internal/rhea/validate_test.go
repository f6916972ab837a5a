package rhea

import (
	"path/filepath"
	"strings"
	"testing"

	"rhea/internal/forest"
	"rhea/internal/stokes"
)

// TestConfigValidate holds the one judge of a runnable Config: each rule
// refuses its row with an error naming the field (an in-rank worker
// count above 1 included: there is no in-rank worker pool), the test scenarios
// pass, and New panics with Validate's error before any work (the Order
// 2 rows are the fail-fast paths of the Taylor-Hood layer: off the
// one-tree box, or with levels that let the mesh adapt and leave hanging
// faces the Q2 node layer rejects). The 36-tree brick is the one forest
// the velocity preconditioner cannot run: multigrid coarsening stops at
// one element per tree, so its coarsest level would hold more than
// gmg.CoarseElems elements, and it is refused here rather than at the
// first solve's Setup.
func TestConfigValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"box":   regressionConfig(),
		"shell": shellConfig(),
		"q2":    q2Config(),
		"slip":  func() Config { c := shellConfig(); c.ShellSlip = "both"; return c }(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: valid config refused: %v", name, err)
		}
	}

	rows := []struct {
		name, field string
		base        func() Config
		edit        func(*Config)
	}{
		{"unknown slip", "ShellSlip", shellConfig, func(c *Config) { c.ShellSlip = "sideways" }},
		{"slip without shell", "ShellSlip", regressionConfig, func(c *Config) { c.ShellSlip = "top" }},
		{"conn without velbc", "VelBC", regressionConfig, func(c *Config) { c.Conn = forest.BrickConnectivity(1, 1, 1) }},
		{"order 3", "Order", regressionConfig, func(c *Config) { c.Order = 3 }},
		{"order -1", "Order", regressionConfig, func(c *Config) { c.Order = -1 }},
		{"too many trees", "Conn", regressionConfig, func(c *Config) {
			c.Conn, c.VelBC = forest.BrickConnectivity(4, 3, 3), stokes.FreeSlip([3]float64{4, 3, 3})
		}},
		{"q2 min level", "MinLevel", q2Config, func(c *Config) { c.MinLevel = 1 }},
		{"q2 shell", "Shell", q2Config, func(c *Config) { c.Shell = true }},
		{"q2 conn", "Conn", q2Config, func(c *Config) {
			c.Conn, c.VelBC = forest.BrickConnectivity(1, 1, 1), stokes.FreeSlip([3]float64{1, 1, 1})
		}},
		{"q2 adaptive", "MaxLevel", q2Config, func(c *Config) { c.MaxLevel, c.TargetElems = 3, 400 }},
		{"max level", "MaxLevel", regressionConfig, func(c *Config) { c.MaxLevel = 20 }},
		{"min above max", "MinLevel", regressionConfig, func(c *Config) { c.MinLevel = 4 }},
		{"base above max", "BaseLevel", regressionConfig, func(c *Config) { c.BaseLevel = 4 }},
		{"target", "TargetElems", regressionConfig, func(c *Config) { c.TargetElems = -5 }},
		{"adapt every", "AdaptEvery", regressionConfig, func(c *Config) { c.AdaptEvery = -1 }},
		{"picard", "Picard", regressionConfig, func(c *Config) { c.Picard = -1 }},
		{"cfl", "CFL", regressionConfig, func(c *Config) { c.CFL = -0.5 }},
		{"visc min above default max", "ViscMin", regressionConfig, func(c *Config) { c.ViscMin, c.ViscMax = 2e6, 0 }},
		{"minres tol", "MinresTol", regressionConfig, func(c *Config) { c.MinresTol = -1e-6 }},
		{"minres max", "MinresMax", regressionConfig, func(c *Config) { c.MinresMax = -1 }},
		{"negative init adapt", "NoInitAdapt", regressionConfig, func(c *Config) { c.InitAdapt = -1 }},
		{"matfree workers", "MatFree.Workers", regressionConfig, func(c *Config) { c.MatFree.Workers = 2 }},
	}
	for _, row := range rows {
		cfg := row.base()
		row.edit(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted, want an error naming %s", row.name, row.field)
			continue
		}
		if !strings.Contains(err.Error(), row.field) {
			t.Errorf("%s: error %q does not name %s", row.name, err, row.field)
		}
		func() {
			defer func() {
				if p, _ := recover().(error); p == nil || p.Error() != err.Error() {
					t.Errorf("%s: New panicked with %v, want Validate's error %v", row.name, p, err)
				}
			}()
			New(nil, cfg) // a nil rank: New must refuse before it communicates

		}()
	}
}

// TestRestoreRefusesInvalidConfig: Restore returns Validate's error on
// every rank, before it reads the snapshot, instead of panicking.
func TestRestoreRefusesInvalidConfig(t *testing.T) {
	bad := regressionConfig()
	bad.MinLevel = 4
	dir := filepath.Join(t.TempDir(), "missing")
	expectRestoreError(t, 2, bad, dir, "MinLevel 4 above MaxLevel 3")
}
