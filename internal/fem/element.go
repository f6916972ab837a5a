// Package fem implements the trilinear hexahedral finite-element
// discretization of the paper (§III): reference shape functions and Gauss
// quadrature, element matrices for the variable-viscosity Stokes system
// (viscous strain-rate block, discrete divergence, Dohrmann–Bochev
// polynomial pressure stabilization), scalar diffusion and mass matrices
// for the energy equation, and the constrained global assembly that
// eliminates hanging nodes at the element level.
//
// Every element matrix has one formula, integrated isoparametrically on
// an ElemGeom (geom.go): a mapped element's comes from its corners, an
// axis-aligned brick's from BrickElemGeom, built once per octree level
// and shared by the level's elements. The reference element is [0,1]^3
// with corners numbered in z-order: bit 0 = x, bit 1 = y, bit 2 = z,
// matching package mesh.
package fem

import "math"

// gauss2 holds the two-point Gauss abscissae on [0,1].
var gauss2 = [2]float64{0.5 - 0.5/math.Sqrt(3), 0.5 + 0.5/math.Sqrt(3)}

// QPoint is one quadrature point: reference coordinates, weight, shape
// values and reference-gradient values for the 8 trilinear functions.
type QPoint struct {
	Xi   [3]float64
	W    float64 // weight on the reference cube (volume measure included)
	N    [8]float64
	dNdX [8][3]float64 // gradient in reference coordinates
}

// Quad8 is the 2x2x2 Gauss rule on the reference cube with precomputed
// shape data (weights sum to 1).
var Quad8 = buildQuad()

func buildQuad() [8]QPoint {
	var q [8]QPoint
	idx := 0
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				xi := [3]float64{gauss2[i], gauss2[j], gauss2[k]}
				p := QPoint{Xi: xi, W: 1.0 / 8.0}
				for c := 0; c < 8; c++ {
					p.N[c] = ShapeValue(c, xi)
					p.dNdX[c] = ShapeGrad(c, xi)
				}
				q[idx] = p
				idx++
			}
		}
	}
	return q
}

// ShapeValue evaluates trilinear shape function c at reference point xi.
func ShapeValue(c int, xi [3]float64) float64 {
	v := 1.0
	for a := 0; a < 3; a++ {
		if c>>a&1 == 1 {
			v *= xi[a]
		} else {
			v *= 1 - xi[a]
		}
	}
	return v
}

// ShapeGrad evaluates the reference gradient of shape function c at xi.
func ShapeGrad(c int, xi [3]float64) [3]float64 {
	var g [3]float64
	for d := 0; d < 3; d++ {
		v := 1.0
		for a := 0; a < 3; a++ {
			if a == d {
				if c>>a&1 == 1 {
					v *= 1
				} else {
					v *= -1
				}
			} else {
				if c>>a&1 == 1 {
					v *= xi[a]
				} else {
					v *= 1 - xi[a]
				}
			}
		}
		g[d] = v
	}
	return g
}

// Interp evaluates the trilinear interpolant of corner values at xi.
func Interp(vals *[8]float64, xi [3]float64) float64 {
	var s float64
	for c := 0; c < 8; c++ {
		s += vals[c] * ShapeValue(c, xi)
	}
	return s
}

// SymKernel is a symmetric 8x8 element matrix kept as its upper
// triangle, packed by rows: entry (a, b) sits at SymIndex[a][b], which
// names the same offset as SymIndex[b][a]. 36 values instead of 64.
type SymKernel [36]float64

// SymIndex[a][b] is the packed offset of entry (min(a, b), max(a, b)) of
// a SymKernel: row a of the upper triangle starts at 8a - a(a-1)/2.
var SymIndex = func() (ix [8][8]int) {
	k := 0
	for a := 0; a < 8; a++ {
		for b := a; b < 8; b++ {
			ix[a][b], ix[b][a] = k, k
			k++
		}
	}
	return ix
}()

// Full expands the packed triangle into the full symmetric matrix.
func (k *SymKernel) Full() (K [8][8]float64) {
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			K[a][b] = k[SymIndex[a][b]]
		}
	}
	return K
}

// SUPGTau returns the standard SUPG parameter for element size h,
// velocity magnitude unorm and diffusivity kappa:
// tau = h_min / (2|u|) * coth(Pe) - 1/Pe with Pe = |u| h / (2 kappa),
// using the common critical approximation min(h/(2|u|), h^2/(12 kappa)).
func SUPGTau(h [3]float64, unorm, kappa float64) float64 {
	hm := math.Min(h[0], math.Min(h[1], h[2]))
	if unorm < 1e-300 {
		return 0
	}
	tauAdv := hm / (2 * unorm)
	if kappa <= 0 {
		return tauAdv
	}
	tauDiff := hm * hm / (12 * kappa)
	return math.Min(tauAdv, tauDiff)
}

// SUPGTauAniso is the directional SUPG parameter for anisotropic
// elements: the advective length scale is the element extent in the
// flow direction, h_dir = |ubar| / sqrt(sum_d (ubar_d/h_d)^2) for the
// element-mean velocity ubar, so a thin element aligned with the flow
// no longer collapses tau to its shortest edge. Isotropic elements take
// the SUPGTau path unchanged (bitwise — the pinned physics regressions
// on box meshes rely on it); the diffusive limit keeps the conservative
// shortest edge in both branches.
func SUPGTauAniso(h, ubar [3]float64, unorm, kappa float64) float64 {
	if h[0] == h[1] && h[2] == h[1] {
		return SUPGTau(h, unorm, kappa)
	}
	if unorm < 1e-300 {
		return 0
	}
	hm := math.Min(h[0], math.Min(h[1], h[2]))
	hdir := hm // rotational corner velocities can cancel in the mean
	var s, un2 float64
	for d := 0; d < 3; d++ {
		r := ubar[d] / h[d]
		s += r * r
		un2 += ubar[d] * ubar[d]
	}
	if s > 0 {
		hdir = math.Sqrt(un2 / s)
	}
	tauAdv := hdir / (2 * unorm)
	if kappa <= 0 {
		return tauAdv
	}
	tauDiff := hm * hm / (12 * kappa)
	return math.Min(tauAdv, tauDiff)
}
