package rhea

import (
	"testing"

	"rhea/internal/sim"
)

// TestAdvectProblemCacheBitwise: AdvectSteps keeps one advect.Problem per
// mesh (lumped mass, boundary flags) and only swaps the velocity in. The
// temperature after {AdvectSteps, AdvectSteps, Adapt, AdvectSteps} must
// equal, bit for bit, the one obtained when the problem is rebuilt on
// every call — which also pins that Adapt drops the cache — on the box
// and on the shell.
func TestAdvectProblemCacheBitwise(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"box", regressionConfig()}, {"shell", shellConfig()}} {
		tc := tc
		run := func(r *sim.Rank, cached bool) []uint64 {
			s := New(r, tc.cfg)
			advect := func(n int) {
				if !cached {
					s.adv = nil
				}
				s.AdvectSteps(n)
			}
			s.SolveStokes()
			advect(2)
			advect(2)
			if cached && s.adv == nil {
				t.Errorf("%s: no transport problem cached after AdvectSteps", tc.name)
			}
			s.Adapt()
			if s.adv != nil {
				t.Errorf("%s: Adapt kept the transport problem of the old mesh", tc.name)
			}
			advect(2)
			return vecBits(s.T)
		}
		sim.Run(2, func(r *sim.Rank) {
			got, want := run(r, true), run(r, false)
			if !bitsSliceEqual(got, want) {
				t.Errorf("%s rank %d: temperature with the cached transport problem differs from the rebuilt one", tc.name, r.ID())
			}
		})
	}
}
