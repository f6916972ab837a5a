package rhea

// New's initial rounds as they were while they carried every field: each
// round ran Sim.Adapt, which takes T, U and P through the four field
// stages of AdaptFields, and then overwrote T with the initial condition
// (U and P were zeros throughout). Kept as the oracle New's zero-field
// rounds must reproduce bit for bit.

import (
	"math"
	"slices"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/sim"
)

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b *la.Vec) bool { return slices.Equal(vecBits(a), vecBits(b)) }

// newFieldCarrying is New with field-carrying initial rounds (collective).
func newFieldCarrying(r *sim.Rank, cfg Config) *Sim {
	cfg = cfg.withDefaults()
	s := &Sim{Cfg: cfg, Rank: r}
	s.Forest = forest.New(r, cfg.conn(), cfg.BaseLevel)
	s.extract()
	s.setInitialTemp()
	for c := range s.U {
		s.U[c] = la.NewVec(s.Mesh.Layout())
	}
	s.P = la.NewVec(s.Mesh.Layout())
	for i := 0; i < cfg.InitAdapt; i++ {
		s.Adapt()
		s.setInitialTemp()
	}
	return s
}

// TestNewMatchesFieldCarryingOracle holds New, whose initial rounds adapt
// with no field and re-seed T, to the field-carrying rounds it replaced:
// the same forest, corner rows, hanging table, numbering, ghost plan and
// T, U, P bit for bit (U = P = +0), on a box-amr-shaped front box and
// the free-slip shell at 1 and 2 ranks. New must also spend nothing in
// the field stages.
func TestNewMatchesFieldCarryingOracle(t *testing.T) {
	front := func(x [3]float64) float64 {
		d := math.Sin(0.1)*(x[0]-0.5) + math.Cos(0.1)*(x[2]-0.5)
		return 0.5 * (1 - math.Tanh(d/0.02))
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"front box", Config{
			Dom: fem.UnitDomain, InitialTemp: front,
			BaseLevel: 3, MinLevel: 2, MaxLevel: 6, TargetElems: 3000, InitAdapt: 3,
		}},
		{"free-slip shell", Config{
			Shell: true, ShellSlip: "top", InitialTemp: ShellBlobTemp,
			BaseLevel: 2, MinLevel: 1, MaxLevel: 4, TargetElems: 3000, InitAdapt: 2,
		}},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2} {
			sim.Run(p, func(r *sim.Rank) {
				got, want := New(r, tc.cfg), newFieldCarrying(r, tc.cfg)
				gm, wm := got.Mesh, want.Mesh
				fail := func(what string) {
					t.Errorf("%s, %d ranks, rank %d: %s differs from the field-carrying oracle", tc.name, p, r.ID(), what)
				}
				if !slices.Equal(got.Forest.Leaves(), want.Forest.Leaves()) {
					fail("the forest")
				}
				if !slices.Equal(gm.Rows, wm.Rows) {
					fail("Mesh.Rows")
				}
				if !slices.Equal(gm.Hang, wm.Hang) {
					fail("Mesh.Hang")
				}
				if gm.Offset != wm.Offset || gm.NGlobal != wm.NGlobal || gm.NumOwned != wm.NumOwned {
					fail("the numbering")
				}
				if !slices.Equal(gm.GX.Ghosts(), wm.GX.Ghosts()) {
					fail("the ghost plan")
				}
				if !sameBits(got.T, want.T) {
					fail("T")
				}
				for c := range got.U {
					if !sameBits(got.U[c], want.U[c]) {
						fail("U")
					}
				}
				if !sameBits(got.P, want.P) {
					fail("P")
				}
				if got.Times.InterpolateFld != 0 || got.Times.TransferFld != 0 {
					t.Errorf("%s, %d ranks, rank %d: New spent %g s interpolating and %g s transferring fields, want 0",
						tc.name, p, r.ID(), got.Times.InterpolateFld, got.Times.TransferFld)
				}
				elems, hanging := got.Forest.NumGlobal(), r.AllreduceInt64(int64(len(gm.Hang)))
				if hanging == 0 {
					t.Errorf("%s, %d ranks: the initial rounds left no hanging corner; the case does not adapt", tc.name, p)
				}
				if r.ID() == 0 {
					t.Logf("%s, %d ranks: %d elements, %d nodes, %d hanging corners after %d rounds",
						tc.name, p, elems, gm.NGlobal, hanging, got.Cfg.InitAdapt)
				}
			})
		}
	}
}
