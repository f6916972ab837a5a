package mesh

import (
	"math"

	"rhea/internal/forest"
	"rhea/internal/morton"
)

// Geometry maps forest node positions to physical coordinates. Mapped
// (multi-tree) meshes carry one; the resulting per-element corner
// coordinates drive general isoparametric Jacobians in the
// discretization layers instead of the axis-aligned constant-h scaling.
//
// Implementations must be consistent across tree boundaries: every
// (tree, position) representation of a shared node must map to the same
// physical point. Both geometries below inherit this from the
// connectivity (shared tree faces share their four corner vertices, and
// the trilinear face restriction depends only on those).
type Geometry interface {
	NodeCoord(tree int32, p [3]uint32) [3]float64
}

// TrilinearGeometry maps each tree by trilinear interpolation of its
// eight corner vertices — the general curved-hexahedral macro-mesh map
// (forest.Connectivity.TreeCoord).
type TrilinearGeometry struct {
	Conn *forest.Connectivity
}

// NodeCoord implements Geometry.
func (g TrilinearGeometry) NodeCoord(tree int32, p [3]uint32) [3]float64 {
	return g.Conn.TreeCoord(tree, p)
}

// ShellGeometry maps a cubed-sphere forest (forest.CubedSphere) onto a
// spherical shell: the trilinear tree map supplies the angular
// direction, and the radius is linear in each tree's local z coordinate
// (the radial axis of every cubed-sphere tree), so nodes with z = 0 or
// z = RootLen lie exactly on the inner and outer spheres. Inter-tree
// transforms of the cubed sphere always map radial axis to radial axis,
// which keeps the radius consistent across representations.
type ShellGeometry struct {
	Conn           *forest.Connectivity
	RInner, ROuter float64
}

// NewShellGeometry returns the shell map for forest.CubedSphere(n) with
// the paper's radii (inner 1, outer 2).
func NewShellGeometry(conn *forest.Connectivity) ShellGeometry {
	return ShellGeometry{Conn: conn, RInner: 1, ROuter: 2}
}

// NodeCoord implements Geometry.
func (g ShellGeometry) NodeCoord(tree int32, p [3]uint32) [3]float64 {
	x := g.Conn.TreeCoord(tree, p)
	n := math.Sqrt(x[0]*x[0] + x[1]*x[1] + x[2]*x[2])
	r := g.RInner + (g.ROuter-g.RInner)*float64(p[2])/float64(morton.RootLen)
	s := r / n
	return [3]float64{x[0] * s, x[1] * s, x[2] * s}
}
