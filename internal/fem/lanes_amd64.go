package fem

import "unsafe"

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 is fixed once at start-up: the CPU has AVX2 and the operating
// system saves the YMM registers (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits
// 1 and 2, CPUID.7.0:EBX AVX2).
var hasAVX2 = func() bool {
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}()

// HasAVX2 reports whether the generated AVX2 element kernels run on this
// CPU (fem's StokesApply4 and the multigrid level loop); without them the
// generated Go loops do the same arithmetic. It is the one dispatch test:
// matfree and gmg pick their element loop by it. The kernels never fuse a
// multiply and an add, so they equal the Go loops only while the compiler
// keeps x*y+z as two roundings too; Go's amd64 backend does at every
// GOAMD64 level, and CI runs the bitwise tests at GOAMD64=v3.
func HasAVX2() bool { return hasAVX2 }

// StokesApply4 applies the Stokes element operator to the four elements
// *g[0:4] at once: ye lane l is what g[l].StokesApply(eta[l], xe lane l)
// writes, bit for bit. The geometry is gathered by address, so lanes may
// alias one geometry (four bricks of one octree level) or come from
// anywhere in memory. It runs the AVX2 kernel only; callers check
// HasAVX2 and run StokesApply on CPUs without it.
func StokesApply4(g *[4]*ElemGeom, eta *[4]float64, xe, ye *Lanes4) {
	if !hasAVX2 {
		panic("fem: StokesApply4 needs AVX2 (check HasAVX2)")
	}
	if unsafe.Sizeof(ElemGeom{}) != asmGeomSize || unsafe.Sizeof(QJac{}) != asmQJacSize ||
		unsafe.Offsetof(ElemGeom{}.Q) != asmOffQ || unsafe.Offsetof(ElemGeom{}.Vol) != asmOffVol ||
		unsafe.Offsetof(QJac{}.Ji) != asmOffJi || unsafe.Offsetof(QJac{}.W) != asmOffW {
		panic("fem: the ElemGeom layout changed: run go generate ./internal/fem")
	}
	stokesApply4AVX2(g, eta, xe, ye)
}
