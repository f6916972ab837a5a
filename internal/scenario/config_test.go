package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"rhea/internal/bench"
)

// TestSpecConfigPinned holds the configurations the service builds. The
// fingerprints were captured before the service took its kinds from the
// bench registry, so snapshots written by earlier servers still restore.
// The rows without gmg were re-pinned once when the assembled coupled
// operator was retired: every spec is now solved matrix-free, so each
// takes the fingerprint its matrix_free twin had ({"kind":"box"} that of
// {"kind":"box","matrix_free":true}), and snapshots of the assembled
// operator, which would not continue bit for bit, are refused. They were
// re-pinned once more when the algebraic-multigrid velocity preconditioner
// was retired (velocity-block preconditioner AMG → GMG): gmg is accepted
// and ignored, so each takes its gmg twin's fingerprint ({"kind":"box"}
// that of {"kind":"box","gmg":true}); every gmg row is unchanged.
// The scenario itself (domain, levels, schedule, initial temperature,
// law) must be the registry case's wherever the spec leaves it unset;
// the solver policy is the service's own (see Spec).
func TestSpecConfigPinned(t *testing.T) {
	cases := []struct {
		spec string // request body, as a client sends it
		fp   uint64
	}{
		{`{"kind":"box"}`, 0x511aff265aa218b3},
		{`{"kind":"shell"}`, 0x6bd2f9a7f05a0c0e},
		{`{"kind":"box","gmg":true}`, 0x511aff265aa218b3},
		{`{"kind":"shell","gmg":true}`, 0x6bd2f9a7f05a0c0e},
		{`{"kind":"box","picard":2}`, 0x3ae04c341fa08cd0},
		{`{"kind":"box","base_level":3,"min_level":2,"max_level":4}`, 0xf715c02eff79e812},
		{`{"kind":"shell","base_level":2,"max_level":4}`, 0x8bcc32f6a7582d22},
		{`{"kind":"box","minres_tol":1e-8}`, 0x20c8b99cb50c01f9},
		{`{"kind":"shell","minres_tol":1e-7,"picard":3}`, 0x275bec132763d0d4},
		// The CI rheaserv smokes.
		{`{"name":"smoke","kind":"box","ranks":2,"cycles":2,"base_level":2,"min_level":1,"max_level":3,"target_elems":100,"adapt_every":2,"checkpoint_every":1}`, 0xbb762f4bef0fefe9},
		// The serve-jobs benchmark workload's body, full and quick.
		{`{"kind":"shell","gmg":true,"ranks":2,"cycles":3,"checkpoint_every":1,"target_elems":400,"minres_tol":1e-6,"ra":12000.000000}`, 0x322b9213e4acd5da},
		{`{"kind":"shell","gmg":true,"ranks":2,"cycles":1,"checkpoint_every":1,"target_elems":200,"minres_tol":1e-6,"ra":9000.000000}`, 0xa90e465cbf709cb7},
	}
	samples := [][3]float64{{0.1, 0.2, 0.3}, {0.4, 0.6, 0.3}, {1.2, 0.1, 0.6}, {0.5, -1.1, 1.3}}
	for _, tc := range cases {
		// Decoded as strictly as POST /scenarios does, so every field of
		// these bodies is still a Spec field.
		var sp Spec
		dec := json.NewDecoder(strings.NewReader(tc.spec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		got := sp.Config()
		if fp := got.Fingerprint(); fp != tc.fp {
			t.Errorf("%s: fingerprint %#016x, want %#016x", tc.spec, fp, tc.fp)
		}

		c, _ := bench.Lookup(sp.Kind)
		want := c.Config()
		or := func(v, def int) int {
			if v != 0 {
				return v
			}
			return def
		}
		type scenarioFields struct {
			Box                      [3]float64
			Shell                    bool
			Slip                     string
			RInner, ROuter, Ra       float64
			Base, Min, Max           int
			Target                   int64
			AdaptEvery, Picard, Init int
		}
		gotF := scenarioFields{got.Dom.Box, got.Shell, got.ShellSlip, got.RInner, got.ROuter, got.Ra,
			int(got.BaseLevel), int(got.MinLevel), int(got.MaxLevel), got.TargetElems,
			got.AdaptEvery, got.Picard, got.InitAdapt}
		wantF := scenarioFields{want.Dom.Box, want.Shell, want.ShellSlip, want.RInner, want.ROuter, want.Ra,
			or(sp.BaseLevel, int(want.BaseLevel)), or(sp.MinLevel, int(want.MinLevel)), or(sp.MaxLevel, int(want.MaxLevel)),
			int64(or(int(sp.TargetElems), int(want.TargetElems))),
			or(sp.AdaptEvery, want.AdaptEvery), or(sp.Picard, want.Picard), want.InitAdapt}
		if sp.Ra != 0 {
			wantF.Ra = sp.Ra
		}
		if gotF != wantF {
			t.Errorf("%s: scenario fields %+v, want the registry case's %+v", tc.spec, gotF, wantF)
		}
		for _, x := range samples {
			if a, b := got.InitialTemp(x), want.InitialTemp(x); a != b {
				t.Errorf("%s: initial temperature at %v is %v, registry %v", tc.spec, x, a, b)
			}
			if a, b := got.Visc(0.3, x[2], 1e-2), want.Visc(0.3, x[2], 1e-2); a != b {
				t.Errorf("%s: viscosity at depth %v is %v, registry %v", tc.spec, x[2], a, b)
			}
		}

		// The service's solver policy, whatever the case pins.
		if got.MinresTol != sp.MinresTol || got.MinresMax != 0 {
			t.Errorf("%s: solver policy tol %v max %d", tc.spec, got.MinresTol, got.MinresMax)
		}
	}
}
