package errind

import (
	"math"
	"testing"

	"rhea/internal/fem"
	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/morton"
	"rhea/internal/sim"
)

var unitBox = forest.BrickConnectivity(1, 1, 1)

func frontField(m *mesh.Mesh, dom fem.Domain) *la.Vec {
	T := la.NewVec(m.Layout())
	for i, pos := range m.OwnedPos {
		x := dom.Coord(pos)
		// Sharp front at x = 0.5.
		T.Data[i] = 0.5 * (1 + math.Tanh((x[0]-0.5)/0.05))
	}
	return T
}

func TestVariationPeaksAtFront(t *testing.T) {
	sim.Run(2, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 3)
		m := mesh.Extract(tr, nil)
		T := frontField(m, fem.UnitDomain)
		eta := Variation(m, T)
		// Indicator must be largest for elements near x=0.5 and tiny far away.
		var nearMax, farMax float64
		for ei, leaf := range m.Leaves {
			cx := (float64(leaf.X) + float64(leaf.Len())/2) / float64(morton.RootLen)
			if math.Abs(cx-0.5) < 0.15 {
				nearMax = math.Max(nearMax, eta[ei])
			} else if math.Abs(cx-0.5) > 0.3 {
				farMax = math.Max(farMax, eta[ei])
			}
		}
		gNear := r.Allreduce(nearMax, sim.OpMax)
		gFar := r.Allreduce(farMax, sim.OpMax)
		if gNear < 5*gFar {
			t.Errorf("indicator not localized: near %v far %v", gNear, gFar)
		}
	})
}

func TestMarkElementsHitsTarget(t *testing.T) {
	for _, p := range []int{1, 4} {
		sim.Run(p, func(r *sim.Rank) {
			tr := forest.New(r, unitBox, 3) // 512 elements
			m := mesh.Extract(tr, nil)
			dom := fem.UnitDomain
			T := frontField(m, dom)
			eta := Variation(m, T)
			target := int64(1200)
			marks := MarkElements(tr, eta, target, Options{MaxLevel: 6, MinLevel: 2, Tol: 0.25})
			if f := float64(marks.Expected); f > 1.4*float64(target) || f < 0.6*float64(target) {
				t.Errorf("p=%d: expected %d elements for target %d", p, marks.Expected, target)
			}
			// Coarsening with the returned marks can only shrink the count.
			tr.CoarsenMarked(marks.Coarsen)
			if got := tr.NumGlobal(); got > marks.Expected {
				t.Errorf("p=%d: after coarsening %d > expected %d", p, got, marks.Expected)
			}
		})
	}
}

func TestMarkElementsKeepsCountWhenBalanced(t *testing.T) {
	// With a target equal to the current size, marking should barely
	// change the element count.
	sim.Run(2, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 4)
		m := mesh.Extract(tr, nil)
		dom := fem.UnitDomain
		T := frontField(m, dom)
		eta := Variation(m, T)
		n := tr.NumGlobal()
		marks := MarkElements(tr, eta, n, Options{MaxLevel: 6, MinLevel: 1, Tol: 0.15})
		if f := float64(marks.Expected); f > 1.5*float64(n) || f < 0.5*float64(n) {
			t.Errorf("expected %d for steady target %d", marks.Expected, n)
		}
	})
}

func TestMarksRespectLevelBounds(t *testing.T) {
	sim.Run(1, func(r *sim.Rank) {
		tr := forest.New(r, unitBox, 2)
		m := mesh.Extract(tr, nil)
		T := frontField(m, fem.UnitDomain)
		eta := Variation(m, T)
		marks := MarkElements(tr, eta, 10000, Options{MaxLevel: 2, MinLevel: 2})
		for i := range marks.Refine {
			if marks.Refine[i] {
				t.Fatal("refine mark beyond MaxLevel")
			}
			if marks.Coarsen[i] {
				t.Fatal("coarsen mark below MinLevel")
			}
		}
	})
}
