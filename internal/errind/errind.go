// Package errind implements the error indication and element-marking
// strategy of the paper (MARKELEMENTS, §IV.B): per-element error
// indicators derived from the solution field, and an iterative global
// threshold adjustment — using only collective communication, never a
// global sort — that keeps the expected number of elements after
// adaptation within a prescribed tolerance of a target.
package errind

import (
	"math"

	"rhea/internal/forest"
	"rhea/internal/la"
	"rhea/internal/mesh"
	"rhea/internal/sim"
)

// Variation computes a cheap interpolation-error indicator per local
// element: the corner-value range of the field (max - min), which is
// large across unresolved fronts and zero where the field is constant
// (collective).
func Variation(m *mesh.Mesh, T *la.Vec) []float64 {
	vals := m.GatherSlots(T.Data)[0]
	out := make([]float64, len(m.Leaves))
	for ei := range out {
		lo, hi := math.Inf(1), math.Inf(-1)
		for c := 0; c < 8; c++ {
			v := m.Corners[ei][c].Value(vals)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		out[ei] = hi - lo
	}
	return out
}

// Marks holds per-leaf adaptation decisions.
type Marks struct {
	Refine  []bool
	Coarsen []bool
	// RefineThreshold and CoarsenThreshold are the final thresholds.
	RefineThreshold, CoarsenThreshold float64
	// Expected is the predicted global element count after adaptation.
	Expected int64
	// Rounds is the number of collective adjustment iterations used.
	Rounds int
}

// Options bounds the adaptation.
type Options struct {
	MaxLevel uint8   // never refine beyond this octree level
	MinLevel uint8   // never coarsen below this level
	Tol      float64 // relative tolerance on the element target (default 0.1)
	MaxIter  int     // threshold adjustment iterations (default 30)
}

// MarkElements chooses refinement and coarsening thresholds so that the
// expected global element count lands within tol of target (collective).
// eta is the per-local-element indicator.
func MarkElements(f *forest.Forest, eta []float64, target int64, opts Options) Marks {
	r := f.Rank()
	nGlobal := f.NumGlobal()
	levels := make([]uint8, len(f.Leaves()))
	for i, o := range f.Leaves() {
		levels[i] = o.O.Level
	}
	if opts.Tol == 0 {
		opts.Tol = 0.1
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 30
	}
	if opts.MaxLevel == 0 {
		opts.MaxLevel = 19
	}
	var localMax float64
	for _, e := range eta {
		localMax = math.Max(localMax, e)
	}
	etaMax := r.Allreduce(localMax, sim.OpMax)
	if etaMax == 0 {
		etaMax = 1
	}

	thetaR := 0.5 * etaMax
	ratio := 0.25 // thetaC = ratio * thetaR
	step := 1.5
	lastDir := 0
	var best Marks
	bestDiff := int64(math.MaxInt64)
	m := Marks{}
	for it := 1; it <= opts.MaxIter; it++ {
		m.Rounds = it
		thetaC := ratio * thetaR
		m.Refine = make([]bool, len(levels))
		m.Coarsen = make([]bool, len(levels))
		var nRef int64
		for i, lvl := range levels {
			if eta[i] > thetaR && lvl < opts.MaxLevel {
				m.Refine[i] = true
				nRef++
			} else if eta[i] < thetaC && lvl > opts.MinLevel {
				m.Coarsen[i] = true
			}
		}
		fams := int64(f.CountCoarsenableFamilies(m.Coarsen))
		gRef := r.AllreduceInt64(nRef)
		gFam := r.AllreduceInt64(fams)
		m.Expected = nGlobal + 7*gRef - 7*gFam
		m.RefineThreshold = thetaR
		m.CoarsenThreshold = thetaC

		diff := m.Expected - target
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			best = m
			best.Refine = append([]bool(nil), m.Refine...)
			best.Coarsen = append([]bool(nil), m.Coarsen...)
		}
		if float64(m.Expected) <= float64(target)*(1+opts.Tol) &&
			float64(m.Expected) >= float64(target)*(1-opts.Tol) {
			return m
		}
		// Damp the multiplicative step whenever we overshoot the target
		// from the other side, so the thresholds settle on the closest
		// achievable count even when counts are coarsely quantized.
		dir := 1
		if m.Expected < target {
			dir = -1
		}
		if lastDir != 0 && dir != lastDir {
			step = math.Sqrt(step)
		}
		lastDir = dir
		if dir > 0 {
			thetaR *= step
		} else {
			thetaR /= step
		}
	}
	best.Rounds = m.Rounds
	return best
}
