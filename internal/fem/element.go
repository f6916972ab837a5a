// Package fem implements the trilinear hexahedral finite-element
// discretization of the paper (§III): reference shape functions and Gauss
// quadrature, element matrices for the variable-viscosity Stokes system
// (viscous strain-rate block, discrete divergence, Dohrmann–Bochev
// polynomial pressure stabilization), scalar diffusion and mass matrices
// for the energy equation, and the constrained global assembly that
// eliminates hanging nodes at the element level.
//
// All elements are axis-aligned bricks (the octree supplies cubes in
// reference coordinates; an anisotropic physical domain stretches them by
// a constant factor per axis). The reference element is [0,1]^3 with
// corners numbered in z-order: bit 0 = x, bit 1 = y, bit 2 = z, matching
// package mesh.
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

// StiffnessBrick returns the scalar diffusion element matrix
// K[a][b] = coef * Integral grad(phi_a) . grad(phi_b) dV on a brick with
// physical edge lengths h.
func StiffnessBrick(h [3]float64, coef float64) [8][8]float64 {
	K := stiffnessBrickSym(h, coef)
	return K.Full()
}

// stiffnessBrickSym is StiffnessBrick's upper triangle, the only half it
// integrates.
func stiffnessBrickSym(h [3]float64, coef float64) SymKernel {
	var K SymKernel
	vol := h[0] * h[1] * h[2]
	for _, q := range Quad8 {
		k := 0
		for a := 0; a < 8; a++ {
			for b := a; b < 8; b++ {
				var s float64
				for d := 0; d < 3; d++ {
					s += q.dNdX[a][d] / h[d] * q.dNdX[b][d] / h[d]
				}
				K[k] += coef * q.W * vol * s
				k++
			}
		}
	}
	return K
}

// MassBrick returns the consistent mass matrix scaled by coef.
func MassBrick(h [3]float64, coef float64) [8][8]float64 {
	var M [8][8]float64
	vol := h[0] * h[1] * h[2]
	for _, q := range Quad8 {
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				M[a][b] += coef * q.W * vol * q.N[a] * q.N[b]
			}
		}
	}
	return M
}

// LumpedMassBrick returns the row-sum lumped mass vector scaled by coef.
func LumpedMassBrick(h [3]float64, coef float64) [8]float64 {
	var m [8]float64
	vol := coef * h[0] * h[1] * h[2] / 8
	for a := 0; a < 8; a++ {
		m[a] = vol
	}
	return m
}

// ViscousBrick returns the 24x24 viscous element matrix for the
// variable-viscosity Stokes operator in strain-rate form:
// A[3a+i][3b+j] = eta * Integral (grad(phi_a).grad(phi_b) delta_ij +
// d_j phi_a d_i phi_b) dV, i.e. the discretization of
// -div(eta (grad u + grad u^T)) with constant element viscosity eta.
func ViscousBrick(h [3]float64, eta float64) [24][24]float64 {
	var A [24][24]float64
	vol := h[0] * h[1] * h[2]
	for _, q := range Quad8 {
		var g [8][3]float64
		for a := 0; a < 8; a++ {
			for d := 0; d < 3; d++ {
				g[a][d] = q.dNdX[a][d] / h[d]
			}
		}
		w := eta * q.W * vol
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				dot := g[a][0]*g[b][0] + g[a][1]*g[b][1] + g[a][2]*g[b][2]
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						v := g[a][j] * g[b][i]
						if i == j {
							v += dot
						}
						A[3*a+i][3*b+j] += w * v
					}
				}
			}
		}
	}
	return A
}

// DivergenceBrick returns the 8x24 pressure-velocity coupling
// B[a][3b+j] = -Integral phi_a d_j phi_b dV (discrete divergence tested
// against the pressure basis).
func DivergenceBrick(h [3]float64) [8][24]float64 {
	var B [8][24]float64
	vol := h[0] * h[1] * h[2]
	for _, q := range Quad8 {
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				for j := 0; j < 3; j++ {
					B[a][3*b+j] -= q.W * vol * q.N[a] * q.dNdX[b][j] / h[j]
				}
			}
		}
	}
	return B
}

// StabilizationBrick returns the Dohrmann–Bochev polynomial pressure
// projection stabilization C = (1/eta) (M - v v^T / V), where M is the
// pressure mass matrix, v its row sums, and V the element volume. C
// annihilates element-constant pressures and penalizes the spurious
// modes of the equal-order pair.
func StabilizationBrick(h [3]float64, eta float64) [8][8]float64 {
	M := MassBrick(h, 1)
	vol := h[0] * h[1] * h[2]
	var v [8]float64
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			v[a] += M[a][b]
		}
	}
	var C [8][8]float64
	inv := 1.0 / eta
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			C[a][b] = inv * (M[a][b] - v[a]*v[b]/vol)
		}
	}
	return C
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
