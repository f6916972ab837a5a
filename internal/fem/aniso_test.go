package fem

// Tests for the directional element-size plumbing: per-axis extents in
// ElemGeom, the anisotropic SUPG parameter, and the bitwise isotropic
// fast path the pinned box physics regressions rely on.

import (
	"math"
	"testing"
)

func TestElemGeomDirectionalH(t *testing.T) {
	h := [3]float64{0.01, 1, 0.25}
	g := BrickElemGeom(h)
	for d := 0; d < 3; d++ {
		if math.Abs(g.H[d]-h[d]) > 1e-14 {
			t.Errorf("H[%d] = %v, want %v", d, g.H[d], h[d])
		}
	}
	if math.Abs(g.Hmin-0.01) > 1e-14 {
		t.Errorf("Hmin = %v, want 0.01", g.Hmin)
	}
}

func TestSUPGTauAnisoDirectional(t *testing.T) {
	h := [3]float64{0.01, 1, 1}
	// Flow along a long axis of a thin element: tau must use the long
	// extent, not collapse to the thin one.
	along := SUPGTauAniso(h, [3]float64{0, 1, 0}, 1, 0)
	if math.Abs(along-0.5) > 1e-14 {
		t.Errorf("tau along long axis = %v, want h_y/(2|u|) = 0.5", along)
	}
	// Flow across the thin axis keeps the thin extent.
	across := SUPGTauAniso(h, [3]float64{1, 0, 0}, 1, 0)
	if math.Abs(across-0.005) > 1e-14 {
		t.Errorf("tau across thin axis = %v, want h_x/(2|u|) = 0.005", across)
	}
	// Oblique flow interpolates between the extents.
	s := math.Sqrt(0.5)
	ob := SUPGTauAniso(h, [3]float64{s, s, 0}, 1, 0)
	if ob <= across || ob >= along {
		t.Errorf("oblique tau %v not between %v and %v", ob, across, along)
	}
	// The diffusive limit stays on the shortest edge.
	diff := SUPGTauAniso(h, [3]float64{0, 1, 0}, 1, 1)
	if want := h[0] * h[0] / 12; math.Abs(diff-want) > 1e-16 {
		t.Errorf("diffusion-limited tau = %v, want %v", diff, want)
	}
}

// TestSUPGTauAnisoIsotropicBitwise: on isotropic elements the
// anisotropic entry point must reproduce SUPGTau exactly — the pinned
// box physics references depend on bitwise-identical stabilization.
func TestSUPGTauAnisoIsotropicBitwise(t *testing.T) {
	for _, h := range []float64{0.125, 0.25, 1.0 / 3} {
		hh := [3]float64{h, h, h}
		for _, u := range [][3]float64{{1, 0, 0}, {0.3, -0.4, 1.2}, {0, 0, 0}} {
			un := math.Sqrt(u[0]*u[0] + u[1]*u[1] + u[2]*u[2])
			for _, kappa := range []float64{0, 1e-6, 1} {
				a := SUPGTauAniso(hh, u, un, kappa)
				b := SUPGTau(hh, un, kappa)
				if a != b {
					t.Fatalf("isotropic fast path not bitwise: %v vs %v (h=%v u=%v kappa=%v)", a, b, h, u, kappa)
				}
			}
		}
	}
}
