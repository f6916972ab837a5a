package dg

import (
	"fmt"

	"rhea/internal/forest"
	"rhea/internal/sim"
)

// Eval3D evaluates a 3-D tensor nodal polynomial (x fastest) at (x,y,z)
// in reference coordinates.
func (b *Basis) Eval3D(u []float64, x, y, z float64) float64 {
	n := b.P + 1
	wz := b.EvalWeights(z)
	var s float64
	for l := 0; l < n; l++ {
		if wz[l] == 0 {
			continue
		}
		s += wz[l] * b.Eval2D(u[l*n*n:(l+1)*n*n], x, y)
	}
	return s
}

// ProjectAfterAdapt carries the DG solution from a pre-adaptation local
// leaf set onto the current (locally adapted, same-partition) leaves and
// rebuilds the solver structures (collective via Rebuild). Refined leaves
// evaluate the parent polynomial at the child nodes (exact for degree <=
// p); coarsened leaves sample the containing child at each parent node.
func (a *Advection) ProjectAfterAdapt(oldLeaves []forest.Octant, oldU []float64, vel VelocityFn) {
	newLeaves := a.F.Leaves()
	n := a.K.N
	newU := make([]float64, a.n3*len(newLeaves))
	oi := 0
	for ni, nl := range newLeaves {
		for oi < len(oldLeaves) && !overlapsF(oldLeaves[oi], nl) {
			oi++
		}
		if oi >= len(oldLeaves) {
			panic(fmt.Sprintf("dg: no overlapping old leaf for %v", nl))
		}
		ol := oldLeaves[oi]
		dst := newU[ni*a.n3 : (ni+1)*a.n3]
		switch {
		case ol == nl:
			copy(dst, oldU[oi*a.n3:(oi+1)*a.n3])
			oi++
		case ol.Tree == nl.Tree && ol.O.IsAncestorOf(nl.O):
			src := oldU[oi*a.n3 : (oi+1)*a.n3]
			oh := float64(ol.O.Len())
			nh := float64(nl.O.Len())
			for l := 0; l < n; l++ {
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						// Node position in tree units -> parent ref coords.
						px := float64(nl.O.X) + nh*(a.K.B.Nodes[i]+1)/2
						py := float64(nl.O.Y) + nh*(a.K.B.Nodes[j]+1)/2
						pz := float64(nl.O.Z) + nh*(a.K.B.Nodes[l]+1)/2
						rx := 2*(px-float64(ol.O.X))/oh - 1
						ry := 2*(py-float64(ol.O.Y))/oh - 1
						rz := 2*(pz-float64(ol.O.Z))/oh - 1
						dst[i+n*(j+n*l)] = a.K.B.Eval3D(src, rx, ry, rz)
					}
				}
			}
			if lastCoveredF(ol, nl) {
				oi++
			}
		case ol.Tree == nl.Tree && nl.O.IsAncestorOf(ol.O):
			// Consume all descendants; sample each parent node from the
			// descendant containing it.
			start := oi
			for oi < len(oldLeaves) && oldLeaves[oi].Tree == nl.Tree && nl.O.ContainsOrEqual(oldLeaves[oi].O) {
				oi++
			}
			nh := float64(nl.O.Len())
			for l := 0; l < n; l++ {
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						px := float64(nl.O.X) + nh*(a.K.B.Nodes[i]+1)/2
						py := float64(nl.O.Y) + nh*(a.K.B.Nodes[j]+1)/2
						pz := float64(nl.O.Z) + nh*(a.K.B.Nodes[l]+1)/2
						// Locate the descendant containing the point.
						var val float64
						found := false
						for k := start; k < oi; k++ {
							d := oldLeaves[k]
							dh := float64(d.O.Len())
							dx, dy, dz := float64(d.O.X), float64(d.O.Y), float64(d.O.Z)
							if px < dx-1e-9 || px > dx+dh+1e-9 ||
								py < dy-1e-9 || py > dy+dh+1e-9 ||
								pz < dz-1e-9 || pz > dz+dh+1e-9 {
								continue
							}
							rx := clampRef(2*(px-dx)/dh - 1)
							ry := clampRef(2*(py-dy)/dh - 1)
							rz := clampRef(2*(pz-dz)/dh - 1)
							val = a.K.B.Eval3D(oldU[k*a.n3:(k+1)*a.n3], rx, ry, rz)
							found = true
							break
						}
						if !found {
							panic("dg: parent node not covered by any descendant")
						}
						dst[i+n*(j+n*l)] = val
					}
				}
			}
		default:
			panic(fmt.Sprintf("dg: misaligned leaf sets: %v vs %v", ol, nl))
		}
	}
	a.U = newU
	a.Rebuild(vel)
}

func clampRef(x float64) float64 {
	if x < -1 {
		return -1
	}
	if x > 1 {
		return 1
	}
	return x
}

func overlapsF(a, b forest.Octant) bool {
	if a.Tree != b.Tree {
		return false
	}
	return a.O.ContainsOrEqual(b.O) || b.O.ContainsOrEqual(a.O)
}

func lastCoveredF(a, d forest.Octant) bool {
	return d.O.X+d.O.Len() == a.O.X+a.O.Len() &&
		d.O.Y+d.O.Len() == a.O.Y+a.O.Len() &&
		d.O.Z+d.O.Len() == a.O.Z+a.O.Len()
}

// TransferAfterPartition ships the per-element solution to the new owners
// following PartitionTree's destination map and rebuilds the solver
// structures (collective).
func (a *Advection) TransferAfterPartition(dests []int, vel VelocityFn) {
	r := a.F.Rank()
	p := r.Size()
	byRank := make([][]float64, p)
	for i, d := range dests {
		byRank[d] = append(byRank[d], a.U[i*a.n3:(i+1)*a.n3]...)
	}
	var sendTo []int
	var out []any
	var nb []int
	for j := range byRank {
		if len(byRank[j]) == 0 {
			continue
		}
		sendTo = append(sendTo, j)
		out = append(out, byRank[j])
		nb = append(nb, 8*len(byRank[j]))
	}
	_, in := r.AlltoallvSparse(sendTo, out, nb)
	a.U = a.U[:0]
	for _, d := range in {
		a.U = append(a.U, d.([]float64)...)
	}
	a.Rebuild(vel)
}

// AdaptOnce runs one adaptation cycle driven by the nodal-range
// indicator: elements above refineTol are refined, below coarsenTol
// coarsened, followed by 2:1 balance, projection, partition and transfer
// (collective). It returns the new global element count and the global
// number of elements that changed rank during repartitioning.
func (a *Advection) AdaptOnce(refineTol, coarsenTol float64, maxLevel uint8, vel VelocityFn) (int64, int64) {
	ind := a.Indicator()
	old := append([]forest.Octant(nil), a.F.Leaves()...)
	oldU := append([]float64(nil), a.U...)

	// Coarsen families whose members all fall below coarsenTol, refine
	// the surviving leaves above refineTol.
	coarsen := make([]bool, len(old))
	refine := make([]bool, len(old))
	for i, o := range old {
		coarsen[i] = ind[i] < coarsenTol
		refine[i] = ind[i] > refineTol && o.O.Level < maxLevel
	}
	a.F.AdaptMarked(coarsen, refine)
	a.F.Balance()
	a.ProjectAfterAdapt(old, oldU, vel)
	dests := a.F.Partition()
	var moved int64
	for _, d := range dests {
		if d != a.F.Rank().ID() {
			moved++
		}
	}
	a.TransferAfterPartition(dests, vel)
	return a.F.NumGlobal(), a.F.Rank().AllreduceInt64(moved)
}

// MaxAbs returns the global maximum absolute nodal value (collective).
func (a *Advection) MaxAbs() float64 {
	var m float64
	for _, v := range a.U {
		if v > m {
			m = v
		} else if -v > m {
			m = -v
		}
	}
	return a.F.Rank().Allreduce(m, sim.OpMax)
}
