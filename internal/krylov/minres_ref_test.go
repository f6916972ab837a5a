package krylov

import (
	"math"
	"testing"

	"rhea/internal/la"
	"rhea/internal/sim"
)

// minresRef is MINRES as it stood before its vector copies became
// renames: every shift of the r and w recurrences is a Copy, every update
// its own pass. MINRES must reproduce it bit for bit.
func minresRef(A Operator, M Operator, b, x *la.Vec, rtol float64, maxIt int) Result {
	n := x.Layout
	r1 := la.NewVec(n)
	r2 := la.NewVec(n)
	y := la.NewVec(n)
	w := la.NewVec(n)
	w1 := la.NewVec(n)
	w2 := la.NewVec(n)
	v := la.NewVec(n)

	A.Apply(x, r1)
	r1.Scale(-1)
	r1.AXPY(1, b)
	M.Apply(r1, y)
	beta1 := r1.Dot(y)
	res := Result{}
	if beta1 < 0 {
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
		v.Copy(y)
		v.Scale(s)
		A.Apply(v, y)
		if it >= 2 {
			y.AXPY(-beta/oldb, r1)
		}
		alfa := v.Dot(y)
		y.AXPY(-alfa/beta, r2)
		r1.Copy(r2)
		r2.Copy(y)
		M.Apply(r2, y)
		oldb = beta
		b2 := r2.Dot(y)
		if b2 < 0 {
			res.Residual = math.NaN()
			return res
		}
		beta = math.Sqrt(b2)

		oldeps := epsln
		delta := cs*dbar + sn*alfa
		gbar := sn*dbar - cs*alfa
		epsln = sn * beta
		dbar = -cs * beta

		gamma := math.Sqrt(gbar*gbar + beta*beta)
		if gamma == 0 {
			gamma = 1e-300
		}
		cs = gbar / gamma
		sn = beta / gamma
		phi := cs * phibar
		phibar = sn * phibar

		denom := 1.0 / gamma
		w1.Copy(w2)
		w2.Copy(w)
		w.Copy(v)
		w.AXPY(-oldeps, w1)
		w.AXPY(-delta, w2)
		w.Scale(denom)
		x.AXPY(phi, w)

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

// TestMINRESMatchesCopyingReference runs both bodies on an indefinite
// system over 2 ranks, with a non-trivial SPD preconditioner and a
// non-zero initial guess, and asks for identical bits: iterates, residual
// history and iteration count. A mismatch is reported without leaving the
// loop early: the other rank is still inside the next collective solve.
func TestMINRESMatchesCopyingReference(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		l := la.NewLayout(r, 40)
		m := la.NewMat(l)
		n := l.N()
		for g := l.Start(); g < l.Offsets[r.ID()+1]; g++ {
			d := 3.0 + 0.1*float64(g%7)
			if g%2 == 1 {
				d = -2.0 - 0.05*float64(g%5)
			}
			m.AddValue(g, g, d)
			if g > 0 {
				m.AddValue(g, g-1, 0.5)
			}
			if g < n-1 {
				m.AddValue(g, g+1, 0.5)
			}
		}
		m.Assemble()
		inv := la.NewVec(l)
		b := la.NewVec(l)
		x0 := la.NewVec(l)
		for i := range b.Data {
			g := float64(l.Start() + int64(i))
			inv.Data[i] = 1 / (1 + math.Mod(g, 3))
			b.Data[i] = math.Sin(g)
			x0.Data[i] = 0.1 * math.Cos(3*g)
		}
		for _, maxIt := range []int{1, 2, 3, 500} {
			want, got := x0.Clone(), x0.Clone()
			ref := minresRef(m, DiagOp(inv), b, want, 1e-13, maxIt)
			res := MINRES(m, DiagOp(inv), b, got, 1e-13, maxIt)
			if res.Iterations != ref.Iterations || res.Converged != ref.Converged || res.Residual != ref.Residual {
				t.Errorf("maxIt %d: got %d iterations (converged %v, residual %v), reference %d (%v, %v)",
					maxIt, res.Iterations, res.Converged, res.Residual, ref.Iterations, ref.Converged, ref.Residual)
			}
			if maxIt == 500 && (!ref.Converged || ref.Iterations < 10) {
				t.Errorf("reference solve too short to test anything: %+v", ref)
			}
			for i, h := range ref.History {
				if i >= len(res.History) || res.History[i] != h {
					t.Errorf("maxIt %d: History differs from the reference at entry %d", maxIt, i)
					break
				}
			}
			for i, x := range want.Data {
				if got.Data[i] != x {
					t.Errorf("maxIt %d: x[%d] = %v, reference %v", maxIt, i, got.Data[i], x)
					break
				}
			}
		}
	})
}
