package fem

// StokesKernels bundles the element matrices of the coupled Q1-Q1 Stokes
// operator for one element, factored so the assembled path can reuse
// them across viscosity updates (and, for axis-aligned bricks, across
// every element of the same octree level): the viscous block and the
// stabilization scale linearly in eta and 1/eta respectively, the
// divergence coupling and the mass are viscosity-independent. The
// matrix-free apply does not use them: it runs ElemGeom.StokesApply, and
// Apply below is its tabulated oracle.
type StokesKernels struct {
	Av [24][24]float64 // ViscousGeom(g, 1); scale by eta
	Bd [8][24]float64  // DivergenceGeom(g)
	Cs [8][8]float64   // StabilizationGeom(g, 1); scale by 1/eta
	M8 [8][8]float64   // MassGeom(g, 1), for consistent load vectors
}

// NewStokesKernelsGeom precomputes the unit-viscosity coupled Stokes
// element matrices of an element. It is the tabulated form of
// ElemGeom.StokesApply: the assembled path scales its matrices, and the
// point kernel's tests compare against its Apply.
func NewStokesKernelsGeom(g *ElemGeom) *StokesKernels {
	return &StokesKernels{
		Av: ViscousGeom(g, 1),
		Bd: DivergenceGeom(g),
		Cs: StabilizationGeom(g, 1),
		M8: MassGeom(g, 1),
	}
}

// NewStokesKernels precomputes the unit-viscosity element matrices for a
// brick with physical edge lengths h.
func NewStokesKernels(h [3]float64) *StokesKernels {
	return NewStokesKernelsGeom(BrickElemGeom(h))
}

// Apply computes the action of the coupled element operator with element
// viscosity eta on the 32 corner dof values xe (dof (corner a, component
// c) at index 4a+c, with c = 3 the pressure) and writes the result into
// ye:
//
//	ye_v = eta Av xe_v + Bd^T xe_p
//	ye_p = Bd xe_v - (1/eta) Cs xe_p
//
// This is one fused pass over the cached matrices, the action of the
// element contributions stokes.Assemble inserts into the global CSR: the
// tests hold ElemGeom.StokesApply to it, and the benchmark harness times
// it.
func (k *StokesKernels) Apply(eta float64, xe, ye *[32]float64) {
	inv := 1 / eta
	for a := 0; a < 8; a++ {
		var s0, s1, s2 float64
		for b := 0; b < 8; b++ {
			xb0, xb1, xb2, xp := xe[4*b], xe[4*b+1], xe[4*b+2], xe[4*b+3]
			s0 += eta*(k.Av[3*a][3*b]*xb0+k.Av[3*a][3*b+1]*xb1+k.Av[3*a][3*b+2]*xb2) + k.Bd[b][3*a]*xp
			s1 += eta*(k.Av[3*a+1][3*b]*xb0+k.Av[3*a+1][3*b+1]*xb1+k.Av[3*a+1][3*b+2]*xb2) + k.Bd[b][3*a+1]*xp
			s2 += eta*(k.Av[3*a+2][3*b]*xb0+k.Av[3*a+2][3*b+1]*xb1+k.Av[3*a+2][3*b+2]*xb2) + k.Bd[b][3*a+2]*xp
		}
		ye[4*a], ye[4*a+1], ye[4*a+2] = s0, s1, s2
		var sp float64
		for b := 0; b < 8; b++ {
			sp += k.Bd[a][3*b]*xe[4*b] + k.Bd[a][3*b+1]*xe[4*b+1] + k.Bd[a][3*b+2]*xe[4*b+2]
			sp -= inv * k.Cs[a][b] * xe[4*b+3]
		}
		ye[4*a+3] = sp
	}
}
