// Code generated by gen_levelkernel.go; DO NOT EDIT.

package gmg

import (
	"unsafe"

	"rhea/internal/fem"
	"rhea/internal/mesh"
)

// levelRun3 is applyRange3 in AVX2 over the n elements from rows[0] on
// (levelkernel_amd64.s): kidx and eta point at those elements' entries,
// kern at the level's first kernel, x and acc at slot 0. It stops before
// the first element with a hanging corner and returns how many it did.
//
//go:noescape
func levelRun3(rows *[8]int32, kern *fem.SymKernel, kidx *int32, eta *float64, x, acc *float64, n int) int

// The layout levelRun3 reads; TestLevelKernelLayout fails when it
// changes, and so does applyElems3 on an AVX2 CPU.
const (
	asmKernSize = 288
	asmRowSize  = 32
)

// applyElems3 runs applyRange3 over every element: on AVX2 CPUs the
// stretches without a hanging corner in levelRun3 and each element with
// one in the Go loop, in element order.
func (lv *level) applyElems3(x, acc []float64) {
	rows := lv.mesh.Rows
	if !fem.HasAVX2() {
		lv.applyRange3(x, acc, 0, len(rows))
		return
	}
	if unsafe.Sizeof(fem.SymKernel{}) != asmKernSize || unsafe.Sizeof(mesh.Mesh{}.Rows[0]) != asmRowSize {
		panic("gmg: the level kernel layout changed: run go generate ./internal/gmg")
	}
	lv.applyVec3(x, acc)
}

// applyVec3 is applyElems3 on an AVX2 CPU.
func (lv *level) applyVec3(x, acc []float64) {
	rows := lv.mesh.Rows
	for lo := 0; lo < len(rows); {
		lo += levelRun3(&rows[lo], &lv.kern[0], &lv.kidx[lo], &lv.eta[lo], &x[0], &acc[0], len(rows)-lo)
		if lo < len(rows) {
			lv.applyRange3(x, acc, lo, lo+1)
			lo++
		}
	}
}
