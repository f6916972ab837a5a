//go:build !amd64

package fem

// HasAVX2 reports whether the generated AVX2 element kernels run on this
// CPU: never on this architecture, where the generated Go loops run.
func HasAVX2() bool { return false }

// StokesApply4 is the AVX2 Stokes kernel, which this architecture does
// not have: callers check HasAVX2 and run StokesApply instead.
func StokesApply4(g *[4]*ElemGeom, eta *[4]float64, xe, ye *Lanes4) {
	panic("fem: StokesApply4 needs AVX2 (check HasAVX2)")
}
