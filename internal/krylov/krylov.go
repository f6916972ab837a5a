// Package krylov provides the iterative solvers of the paper's solution
// stack: preconditioned MINRES (Paige–Saunders) for the symmetric
// indefinite stabilized Stokes system, and preconditioned CG for the
// symmetric positive definite subproblems. Both operate on distributed
// la.Vec vectors; all reductions are collective.
package krylov

import (
	"math"
	"time"

	"rhea/internal/la"
)

// Operator applies a linear operator: y = A x.
type Operator interface {
	Apply(x, y *la.Vec)
}

// OpFunc adapts a function to the Operator interface.
type OpFunc func(x, y *la.Vec)

// Apply implements Operator.
func (f OpFunc) Apply(x, y *la.Vec) { f(x, y) }

// Identity is the trivial preconditioner.
var Identity Operator = OpFunc(func(x, y *la.Vec) { y.Copy(x) })

// Result reports the outcome of an iterative solve.
type Result struct {
	Iterations int
	Converged  bool
	Residual   float64   // final (preconditioned for MINRES) residual norm
	History    []float64 // residual norm at each iteration
}

// CG solves A x = b for SPD A with SPD preconditioner M (approximating
// A^-1), starting from the initial guess in x. It stops when the
// preconditioned residual norm falls below rtol times its initial value,
// or after maxIt iterations.
func CG(A Operator, M Operator, b, x *la.Vec, rtol float64, maxIt int) Result {
	r := la.NewVec(x.Layout)
	z := la.NewVec(x.Layout)
	p := la.NewVec(x.Layout)
	Ap := la.NewVec(x.Layout)

	A.Apply(x, r)
	r.Scale(-1)
	r.AXPY(1, b) // r = b - A x
	M.Apply(r, z)
	p.Copy(z)
	rz := r.Dot(z)
	norm0 := math.Sqrt(math.Abs(rz))
	res := Result{History: []float64{norm0}}
	if norm0 == 0 {
		res.Converged = true
		return res
	}
	for it := 1; it <= maxIt; it++ {
		A.Apply(p, Ap)
		pAp := p.Dot(Ap)
		if pAp == 0 {
			break
		}
		alpha := rz / pAp
		x.AXPY(alpha, p)
		r.AXPY(-alpha, Ap)
		M.Apply(r, z)
		rzNew := r.Dot(z)
		norm := math.Sqrt(math.Abs(rzNew))
		res.History = append(res.History, norm)
		res.Iterations = it
		res.Residual = norm
		if norm <= rtol*norm0 {
			res.Converged = true
			return res
		}
		p.AYPX(rzNew/rz, z)
		rz = rzNew
	}
	return res
}

// MINRES solves A x = b for symmetric (possibly indefinite) A with SPD
// preconditioner M (approximating A^-1), starting from the initial guess
// in x. Each iteration performs one A-apply, one M-apply, two inner
// products and constant vector work, as in the paper (§III).
func MINRES(A Operator, M Operator, b, x *la.Vec, rtol float64, maxIt int) Result {
	n := x.Layout
	r1 := la.NewVec(n)
	r2 := la.NewVec(n)
	y := la.NewVec(n)
	w := la.NewVec(n)
	w1 := la.NewVec(n)
	w2 := la.NewVec(n)
	v := la.NewVec(n)

	// r1 = b - A x
	A.Apply(x, r1)
	r1.Scale(-1)
	r1.AXPY(1, b)
	M.Apply(r1, y)
	beta1 := r1.Dot(y)
	res := Result{}
	if beta1 < 0 {
		// Preconditioner is not SPD; report divergence.
		res.Residual = math.NaN()
		return res
	}
	beta1 = math.Sqrt(beta1)
	res.History = []float64{beta1}
	if beta1 == 0 {
		res.Converged = true
		return res
	}

	oldb, beta := 0.0, beta1
	dbar, epsln := 0.0, 0.0
	phibar := beta1
	cs, sn := -1.0, 0.0
	r2.Copy(r1)

	for it := 1; it <= maxIt; it++ {
		s := 1.0 / beta
		for i, yi := range y.Data {
			v.Data[i] = yi * s
		}
		A.Apply(v, y)
		if it >= 2 {
			y.AXPY(-beta/oldb, r1)
		}
		alfa := v.Dot(y)
		y.AXPY(-alfa/beta, r2)
		// r1 <- r2 <- y by renaming; the old r1 becomes M's output.
		r1, r2, y = r2, y, r1
		M.Apply(r2, y)
		oldb = beta
		b2 := r2.Dot(y)
		if b2 < 0 {
			res.Residual = math.NaN()
			return res
		}
		beta = math.Sqrt(b2)

		// Apply previous rotation.
		oldeps := epsln
		delta := cs*dbar + sn*alfa
		gbar := sn*dbar - cs*alfa
		epsln = sn * beta
		dbar = -cs * beta

		// Compute the next rotation.
		gamma := math.Sqrt(gbar*gbar + beta*beta)
		if gamma == 0 {
			gamma = 1e-300
		}
		cs = gbar / gamma
		sn = beta / gamma
		phi := cs * phibar
		phibar = sn * phibar

		// Update the solution.
		// w1 <- w2 <- w by renaming, then w = (v - oldeps w1 - delta w2)/gamma
		// and x += phi w in one pass, entry by entry in the order the
		// separate Copy/AXPY/AXPY/Scale/AXPY calls applied them.
		denom := 1.0 / gamma
		w1, w2, w = w2, w, w1
		for i, vi := range v.Data {
			t := vi + -oldeps*w1.Data[i]
			t += -delta * w2.Data[i]
			t *= denom
			w.Data[i] = t
			x.Data[i] += phi * t
		}

		res.Iterations = it
		res.Residual = math.Abs(phibar)
		res.History = append(res.History, res.Residual)
		if res.Residual <= rtol*beta1 {
			res.Converged = true
			return res
		}
	}
	return res
}

// Jacobi builds a diagonal (Jacobi) preconditioner from the matrix
// diagonal; zero diagonal entries pass through unscaled.
func Jacobi(A *la.Mat) Operator {
	d := A.Diag()
	inv := la.NewVec(d.Layout)
	for i, v := range d.Data {
		if v != 0 {
			inv.Data[i] = 1 / v
		} else {
			inv.Data[i] = 1
		}
	}
	return OpFunc(func(x, y *la.Vec) { y.PointwiseMult(inv, x) })
}

// DiagOp wraps an explicit inverse-diagonal vector as a preconditioner.
func DiagOp(inv *la.Vec) Operator {
	return OpFunc(func(x, y *la.Vec) { y.PointwiseMult(inv, x) })
}

// EstimateLambdaMaxLanczos estimates the largest eigenvalue of D^-1 A by
// a fixed number of Lanczos steps on the symmetrized operator
// D^-1/2 A D^-1/2 (same spectrum), where dinv holds the inverse diagonal
// (collective). It is the setup step of the multigrid smoothers: gmg
// damps its Jacobi sweep by it, and the Q2 p-level's Chebyshev smoother
// targets the interval [1.1*lmax/ratio, 1.1*lmax]. Lanczos reaches
// the extreme eigenvalue in far fewer operator applies than power
// iteration — typically within a percent after 5-8 steps where power
// iteration needs 30+ on clustered FE spectra — which is what makes a
// per-viscosity-refresh estimate affordable. The start vector is a
// fixed deterministic mix (1 + sin(0.7g) over global indices g) so
// estimates are reproducible across runs and rank counts; no
// reorthogonalization (the loss only ever re-introduces converged
// directions, harmless for an extreme-eigenvalue estimate at these step
// counts).
func EstimateLambdaMaxLanczos(A Operator, dinv *la.Vec, steps int) float64 {
	l := dinv.Layout
	dhalf := la.NewVec(l) // D^-1/2
	for i, v := range dinv.Data {
		if v > 0 {
			dhalf.Data[i] = math.Sqrt(v)
		} else {
			dhalf.Data[i] = 1
		}
	}
	v := la.NewVec(l)
	start := l.Start()
	for i := range v.Data {
		g := float64(start + int64(i))
		v.Data[i] = 1 + math.Sin(0.7*g)
	}
	nrm := v.Norm2()
	if nrm == 0 {
		return 1
	}
	v.Scale(1 / nrm)
	prev := la.NewVec(l) // v_{k-1}
	w := la.NewVec(l)
	t := la.NewVec(l)
	var alphas, betas []float64
	beta := 0.0
	for k := 0; k < steps; k++ {
		// w = D^-1/2 A D^-1/2 v
		t.PointwiseMult(dhalf, v)
		A.Apply(t, w)
		w.PointwiseMult(dhalf, w)
		alpha := w.Dot(v)
		w.AXPY(-alpha, v)
		if k > 0 {
			w.AXPY(-beta, prev)
		}
		alphas = append(alphas, alpha)
		beta = w.Norm2()
		if beta == 0 {
			break
		}
		betas = append(betas, beta)
		prev.Copy(v)
		v.Copy(w)
		v.Scale(1 / beta)
	}
	return tridiagLambdaMax(alphas, betas)
}

// tridiagLambdaMax returns the largest eigenvalue of the symmetric
// tridiagonal matrix with the given diagonal and off-diagonal entries,
// by bisection on the Sturm sequence (deterministic, no allocation
// beyond the inputs).
func tridiagLambdaMax(alphas, betas []float64) float64 {
	n := len(alphas)
	if n == 0 {
		return 1
	}
	// Gershgorin bracket.
	lo, hi := alphas[0], alphas[0]
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(betas[i-1])
		}
		if i < n-1 && i < len(betas) {
			r += math.Abs(betas[i])
		}
		lo = math.Min(lo, alphas[i]-r)
		hi = math.Max(hi, alphas[i]+r)
	}
	// countBelow returns the number of eigenvalues < x.
	countBelow := func(x float64) int {
		cnt := 0
		d := 1.0
		for i := 0; i < n; i++ {
			b2 := 0.0
			if i > 0 {
				b2 = betas[i-1] * betas[i-1]
			}
			dNew := alphas[i] - x
			if d != 0 {
				dNew -= b2 / d
			} else {
				dNew -= b2 / 1e-300
			}
			if dNew < 0 {
				cnt++
			}
			d = dNew
		}
		return cnt
	}
	for it := 0; it < 80 && hi-lo > 1e-12*(1+math.Abs(hi)); it++ {
		mid := 0.5 * (lo + hi)
		if countBelow(mid) == n {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// Counted wraps an operator and accumulates the number of applies and
// the wall-clock seconds spent in them — the instrumentation the
// benchmark harness uses to split a solve's time between the operator
// and the preconditioner.
type Counted struct {
	Op      Operator
	Applies int
	Seconds float64
}

// Apply implements Operator.
func (c *Counted) Apply(x, y *la.Vec) {
	t0 := time.Now()
	c.Op.Apply(x, y)
	c.Seconds += time.Since(t0).Seconds()
	c.Applies++
}
