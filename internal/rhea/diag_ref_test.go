package rhea

// The four diagnostic sweeps Diagnose replaced — Nusselt's box, mapped-box
// and shell bodies and RMSVelocity — kept verbatim as the test oracle:
// Diagnose must return their Nu and Vrms bit for bit on every geometry
// and at every rank count (at 3 ranks the rank-order fold matters), enter
// one collective and one ghost exchange, and turn an unhealthy state into
// a typed error.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/sim"
)

func nusseltRef(s *Sim) float64 {
	if s.Cfg.Shell {
		return nusseltShellRef(s)
	}
	if fem.ElemGeoms(s.Mesh) != nil {
		return nusseltMappedBoxRef(s)
	}
	bufs := s.gatherSlotsMulti(s.T, s.U[2])
	tb, wb := bufs[0], bufs[1]
	xi := [3]float64{0.5, 0.5, 0.5}
	var sum float64
	for ei, leaf := range s.Mesh.Leaves {
		h := s.Cfg.Dom.ElemSize(leaf)
		vol := h[0] * h[1] * h[2]
		var Tc, wc, dTdz float64
		for c := 0; c < 8; c++ {
			co := s.Mesh.Corner(ei, c)
			var tv, wv float64
			for k := 0; k < int(co.N); k++ {
				tv += co.W[k] * tb[co.Slot[k]]
				wv += co.W[k] * wb[co.Slot[k]]
			}
			Tc += tv / 8
			wc += wv / 8
			g := fem.ShapeGrad(c, xi)
			dTdz += tv * g[2] / h[2]
		}
		sum += (wc*Tc - dTdz) * vol
	}
	total := s.Rank.Allreduce(sum, sim.OpSum)
	return total / (s.Cfg.Dom.Box[0] * s.Cfg.Dom.Box[1])
}

func nusseltMappedBoxRef(s *Sim) float64 {
	bufs := s.gatherSlotsMulti(s.T, s.U[2])
	tb, wb := bufs[0], bufs[1]
	var sum, volSum float64
	for ei := range s.Mesh.Leaves {
		Gc, vol := fem.CenterGradients(&s.Mesh.X[ei])
		var Tc, wc, dTdz float64
		for c := 0; c < 8; c++ {
			co := s.Mesh.Corner(ei, c)
			var tv, wv float64
			for k := 0; k < int(co.N); k++ {
				tv += co.W[k] * tb[co.Slot[k]]
				wv += co.W[k] * wb[co.Slot[k]]
			}
			Tc += tv / 8
			wc += wv / 8
			dTdz += tv * Gc[c][2]
		}
		sum += (wc*Tc - dTdz) * vol
		volSum += vol
	}
	total := s.Rank.Allreduce(sum, sim.OpSum)
	volTot := s.Rank.Allreduce(volSum, sim.OpSum)
	return total / (volTot / s.Cfg.Dom.Box[2])
}

func nusseltShellRef(s *Sim) float64 {
	bufs := s.gatherSlotsMulti(s.T, s.U[0], s.U[1], s.U[2])
	tb := bufs[0]
	ub := [3][]float64{bufs[1], bufs[2], bufs[3]}
	var sum, ref float64
	for ei := range s.Mesh.Leaves {
		Gc, vol := fem.CenterGradients(&s.Mesh.X[ei])
		center := fem.CenterPoint(&s.Mesh.X[ei])
		var Tc float64
		var uc, gradT [3]float64
		for c := 0; c < 8; c++ {
			co := s.Mesh.Corner(ei, c)
			var tv float64
			for k := 0; k < int(co.N); k++ {
				tv += co.W[k] * tb[co.Slot[k]]
			}
			Tc += tv / 8
			for d := 0; d < 3; d++ {
				var uv float64
				for k := 0; k < int(co.N); k++ {
					uv += co.W[k] * ub[d][co.Slot[k]]
				}
				uc[d] += uv / 8
				gradT[d] += tv * Gc[c][d]
			}
		}
		rc := math.Sqrt(center[0]*center[0] + center[1]*center[1] + center[2]*center[2])
		rin, rout := s.Cfg.RInner, s.Cfg.ROuter
		var ur, dTdr float64
		for d := 0; d < 3; d++ {
			ur += uc[d] * center[d] / rc
			dTdr += gradT[d] * center[d] / rc
		}
		sum += (ur*Tc - dTdr) * vol
		ref += rin * rout / (rc * rc * (rout - rin)) * vol
	}
	total := s.Rank.Allreduce(sum, sim.OpSum)
	return total / s.Rank.Allreduce(ref, sim.OpSum)
}

func rmsVelocityRef(s *Sim) float64 {
	bufs := s.gatherSlotsMulti(s.U[0], s.U[1], s.U[2])
	var sum, volSum float64
	for ei, leaf := range s.Mesh.Leaves {
		var vol float64
		if s.Mesh.X != nil {
			_, vol = fem.CenterGradients(&s.Mesh.X[ei])
		} else {
			h := s.Cfg.Dom.ElemSize(leaf)
			vol = h[0] * h[1] * h[2]
		}
		volSum += vol
		var u2 float64
		for d := 0; d < 3; d++ {
			var uc float64
			for c := 0; c < 8; c++ {
				co := s.Mesh.Corner(ei, c)
				var v float64
				for k := 0; k < int(co.N); k++ {
					v += co.W[k] * bufs[d][co.Slot[k]]
				}
				uc += v / 8
			}
			u2 += uc * uc
		}
		sum += u2 * vol
	}
	total := s.Rank.Allreduce(sum, sim.OpSum)
	if s.Mesh.X != nil {
		return math.Sqrt(total / s.Rank.Allreduce(volSum, sim.OpSum))
	}
	b := s.Cfg.Dom.Box
	return math.Sqrt(total / (b[0] * b[1] * b[2]))
}

// diagCases are the three geometries the old sweeps had a body for: an
// adapted box with hanging nodes on a domain whose element sizes are not
// powers of two (so a reassociated product or quotient changes bits), a
// mapped 2x1x1 brick and the cubed-sphere shell.
func diagCases() map[string]Config {
	box := blobConfig()
	box.Dom = fem.Domain{Box: [3]float64{1.5, 1, 0.7}}
	return map[string]Config{"box": box, "brick": brickConfig(), "shell": shellConfig()}
}

// swirl sets a smooth, nowhere-special velocity field on the owned nodes.
func swirl(s *Sim) {
	for i := range s.Mesh.OwnedPos {
		x := fem.NodeCoord(s.Mesh, s.Cfg.Dom, i)
		s.U[0].Data[i] = math.Sin(3*x[0]) * math.Cos(2*x[1]) * (1 + x[2])
		s.U[1].Data[i] = math.Cos(x[0]+2*x[1]) - 0.3*x[2]
		s.U[2].Data[i] = math.Sin(math.Pi*x[2]) * (1 + 0.5*x[1]) * math.Exp(-x[0])
	}
}

func TestDiagnoseMatchesReference(t *testing.T) {
	for name, cfg := range diagCases() {
		for _, p := range []int{1, 2, 3} {
			name, cfg, p := name, cfg, p
			t.Run(fmt.Sprintf("%s-%dranks", name, p), func(t *testing.T) {
				sim.Run(p, func(r *sim.Rank) {
					s := New(r, cfg)
					swirl(s)
					var hanging int64
					for ei := range s.Mesh.Rows {
						for c := range s.Mesh.Rows[ei] {
							if s.Mesh.Corner(ei, c).Hanging() {
								hanging++
							}
						}
					}
					hanging = r.AllreduceInt64(hanging)
					if name == "box" && hanging == 0 {
						t.Errorf("adapted box has no hanging corners: the test is vacuous")
					}
					v := s.Diagnose(false)
					nu, vrms := nusseltRef(s), rmsVelocityRef(s)
					if math.Float64bits(v.Nu) != math.Float64bits(nu) || math.Float64bits(v.Vrms) != math.Float64bits(vrms) {
						t.Errorf("rank %d: Diagnose Nu %v Vrms %v, reference sweeps %v %v", r.ID(), v.Nu, v.Vrms, nu, vrms)
					}
					if v.Err != nil || v.Stop || vrms == 0 {
						t.Errorf("rank %d: verdict %+v on a healthy state that never solved", r.ID(), v)
					}
				})
			})
		}
	}
}

// TestDiagnoseIsOneCollective: the whole verdict costs one ghost exchange
// of T and U (as many messages as gathering one field) and one reduction
// of ceil(log2 P) rounds, which also agrees on a stop that one rank asked
// for.
func TestDiagnoseIsOneCollective(t *testing.T) {
	for _, p := range []int{2, 3} {
		p := p
		sim.Run(p, func(r *sim.Rank) {
			s := New(r, shellConfig())
			s0 := r.Stats()
			s.Mesh.GatherSlots(s.T.Data)
			s1 := r.Stats()
			v := s.Diagnose(r.ID() == p-1)
			s2 := r.Stats()
			if !v.Stop {
				t.Errorf("P=%d rank %d: rank %d's stop request was lost", p, r.ID(), p-1)
			}
			exchange := s1.UserMsgs - s0.UserMsgs
			if got := s2.UserMsgs - s1.UserMsgs; got != exchange {
				t.Errorf("P=%d rank %d: Diagnose sent %d messages, one ghost exchange sends %d", p, r.ID(), got, exchange)
			}
			if got := s2.CollectiveCalls - s1.CollectiveCalls; got != 1 {
				t.Errorf("P=%d rank %d: Diagnose entered %d collectives, want 1", p, r.ID(), got)
			}
			if got := s2.CollRounds - s1.CollRounds; got != sim.CeilLog2(p) {
				t.Errorf("P=%d rank %d: Diagnose took %d rounds, want %d", p, r.ID(), got, sim.CeilLog2(p))
			}
			if r.AllreduceInt64(int64(exchange)) == 0 {
				t.Errorf("P=%d: no rank sends a ghost message: the test is vacuous", p)
			}
			if r.ID() == 0 {
				t.Logf("P=%d rank 0: Diagnose = %d user messages, %d collective, %d rounds",
					p, s2.UserMsgs-s1.UserMsgs, s2.CollectiveCalls-s1.CollectiveCalls, s2.CollRounds-s1.CollRounds)
			}
		})
	}
}

// TestDiagnoseNotConverged: a solve that stops at MinresMax short of its
// tolerance makes the verdict an ErrNotConverged naming the iterations; a
// Sim that has not solved has no convergence verdict.
func TestDiagnoseNotConverged(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		cfg := blobConfig()
		cfg.MinresTol, cfg.MinresMax = 1e-300, 5
		s := New(r, cfg)
		if v := s.Diagnose(false); v.Err != nil {
			t.Errorf("rank %d: verdict before any solve: %v", r.ID(), v.Err)
		}
		s.SolveStokes()
		v := s.Diagnose(false)
		if !errors.Is(v.Err, ErrNotConverged) || errors.Is(v.Err, ErrNonFinite) {
			t.Fatalf("rank %d: verdict %v, want ErrNotConverged", r.ID(), v.Err)
		}
		if r.ID() == 0 {
			t.Log(v.Err)
		}
	})
}

// TestDiagnoseNonFinite: a viscosity law that returns NaN poisons the
// velocity, and the verdict says so with its own error.
func TestDiagnoseNonFinite(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		cfg := blobConfig()
		cfg.Visc = func(_, _, _ float64) float64 { return math.NaN() }
		cfg.MinresMax = 20
		s := New(r, cfg)
		s.SolveStokes()
		v := s.Diagnose(false)
		if !errors.Is(v.Err, ErrNonFinite) {
			t.Fatalf("rank %d: verdict %v (Nu %v, Vrms %v), want ErrNonFinite", r.ID(), v.Err, v.Nu, v.Vrms)
		}
		if r.ID() == 0 {
			t.Log(v.Err)
		}
	})
}
