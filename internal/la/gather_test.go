package la

import (
	"testing"

	"rhea/internal/sim"
)

func TestGatherGlobalVector(t *testing.T) {
	sim.Run(4, func(r *sim.Rank) {
		l := NewLayout(r, 3)
		v := NewVec(l)
		for i := range v.Data {
			v.Data[i] = float64(l.Start() + int64(i))
		}
		full := GatherGlobal(v)
		if len(full) != int(l.N()) {
			t.Fatalf("len=%d", len(full))
		}
		for i, g := range full {
			if g != float64(i) {
				t.Fatalf("full[%d]=%v", i, g)
			}
		}
		// The returned slice must be a snapshot: mutating local data after
		// the gather must not corrupt messages of a following gather
		// (regression test for the send-aliasing bug).
		v.Data[0] = -1
		full2 := GatherGlobal(v)
		if full2[int(l.Start())] != -1 {
			t.Fatal("second gather did not observe the update")
		}
	})
}

// Regression: reusing the input buffer between consecutive gathers must
// not let late readers observe the overwritten contents.
func TestGatherGlobalNoAliasing(t *testing.T) {
	sim.Run(4, func(r *sim.Rank) {
		l := NewLayout(r, 2)
		v := NewVec(l)
		for round := 0; round < 20; round++ {
			for i := range v.Data {
				v.Data[i] = float64(1000*round) + float64(l.Start()+int64(i))
			}
			full := GatherGlobal(v)
			for i, g := range full {
				want := float64(1000*round) + float64(i)
				if g != want {
					t.Fatalf("round %d: full[%d]=%v want %v (aliasing)", round, i, g, want)
				}
			}
			// Immediately overwrite, as the Stokes preconditioner does.
			for i := range v.Data {
				v.Data[i] = -999
			}
		}
	})
}
