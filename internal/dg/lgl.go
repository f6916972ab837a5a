// Package dg implements the high-order nodal discontinuous Galerkin layer
// of ALPS — the MANGLL library of the paper (§VII): Legendre–Gauss–
// Lobatto (LGL) nodal bases on hexahedral elements, tensor-product
// O(p^4) spectral differentiation, upwind-flux DG advection on a
// (forest-of-octrees) adaptive mesh with interpolation-based treatment of
// 2:1 nonconforming faces, and a five-stage fourth-order low-storage
// Runge–Kutta integrator.
package dg

import "math"

// Basis holds the 1-D LGL machinery for polynomial order p.
type Basis struct {
	P int
	// Nodes are the p+1 LGL points on [-1, 1].
	Nodes []float64
	// Weights are the LGL quadrature weights.
	Weights []float64
	// D is the (p+1)x(p+1) spectral differentiation matrix: (D u)_i =
	// u'(x_i) for polynomial nodal values u.
	D []float64
	// bary holds barycentric interpolation weights for evaluation.
	bary []float64
}

// NewBasis computes the LGL basis of order p (p >= 1).
func NewBasis(p int) *Basis {
	if p < 1 {
		panic("dg: order must be >= 1")
	}
	n := p + 1
	b := &Basis{P: p, Nodes: make([]float64, n), Weights: make([]float64, n)}

	// LGL nodes: endpoints plus roots of P'_p, found by Newton iteration
	// from Chebyshev–Gauss–Lobatto initial guesses.
	for i := 0; i < n; i++ {
		x := -math.Cos(math.Pi * float64(i) / float64(p))
		switch {
		case i == 0:
			x = -1
		case i == p:
			x = 1
		default:
			// Newton on f = P'_p. From the Legendre ODE,
			// (1-x^2) P''_p = 2x P'_p - p(p+1) P_p gives f'.
			for it := 0; it < 100; it++ {
				pv, dpv, _ := legendreAll(p, x)
				fp := (2*x*dpv - float64(p*(p+1))*pv) / (1 - x*x)
				dx := dpv / fp
				x -= dx
				if math.Abs(dx) < 1e-15 {
					break
				}
			}
		}
		b.Nodes[i] = x
	}
	// Weights: w_i = 2 / (p (p+1) P_p(x_i)^2).
	for i := 0; i < n; i++ {
		pv, _, _ := legendreAll(p, b.Nodes[i])
		b.Weights[i] = 2 / (float64(p*(p+1)) * pv * pv)
	}
	// Barycentric weights.
	b.bary = make([]float64, n)
	for i := 0; i < n; i++ {
		w := 1.0
		for j := 0; j < n; j++ {
			if j != i {
				w *= b.Nodes[i] - b.Nodes[j]
			}
		}
		b.bary[i] = 1 / w
	}
	// Differentiation matrix: D_ij = bary_j/bary_i / (x_i - x_j), with
	// diagonal making row sums zero.
	b.D = make([]float64, n*n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i != j {
				d := b.bary[j] / b.bary[i] / (b.Nodes[i] - b.Nodes[j])
				b.D[i*n+j] = d
				sum += d
			}
		}
		b.D[i*n+i] = -sum
	}
	return b
}

// legendreAll evaluates P_p, P'_p and P”_p at x by recurrence.
func legendreAll(p int, x float64) (pv, dpv, ddpv float64) {
	p0, p1 := 1.0, x
	d0, d1 := 0.0, 1.0
	dd0, dd1 := 0.0, 0.0
	if p == 0 {
		return p0, d0, dd0
	}
	for k := 2; k <= p; k++ {
		a := (2*float64(k) - 1) / float64(k)
		c := (float64(k) - 1) / float64(k)
		p2 := a*x*p1 - c*p0
		d2 := a*(p1+x*d1) - c*d0
		dd2 := a*(2*d1+x*dd1) - c*dd0
		p0, p1 = p1, p2
		d0, d1 = d1, d2
		dd0, dd1 = dd1, dd2
	}
	return p1, d1, dd1
}

// EvalWeights returns the row of Lagrange interpolation weights L_j(x)
// for evaluating a nodal polynomial at reference point x in [-1, 1].
func (b *Basis) EvalWeights(x float64) []float64 {
	n := b.P + 1
	out := make([]float64, n)
	// Exact node hit.
	for j := 0; j < n; j++ {
		if x == b.Nodes[j] {
			out[j] = 1
			return out
		}
	}
	var denom float64
	for j := 0; j < n; j++ {
		t := b.bary[j] / (x - b.Nodes[j])
		out[j] = t
		denom += t
	}
	for j := 0; j < n; j++ {
		out[j] /= denom
	}
	return out
}

// Eval2D evaluates a 2-D tensor nodal polynomial (row-major, i fastest)
// at (x, y).
func (b *Basis) Eval2D(u []float64, x, y float64) float64 {
	n := b.P + 1
	wx := b.EvalWeights(x)
	wy := b.EvalWeights(y)
	var s float64
	for j := 0; j < n; j++ {
		var row float64
		base := j * n
		for i := 0; i < n; i++ {
			row += wx[i] * u[base+i]
		}
		s += wy[j] * row
	}
	return s
}
