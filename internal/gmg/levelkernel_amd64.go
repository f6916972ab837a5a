// Code generated by gen_levelkernel.go; DO NOT EDIT.

package gmg

import (
	"unsafe"

	"rhea/internal/fem"
	"rhea/internal/mesh"
)

// levelRun3 is applyRange3 in AVX2 over the n elements from rows[0] on
// (levelkernel_amd64.s), hanging corners included: kidx and eta point at
// those elements' entries, kern at the level's first kernel, hang at the
// mesh's hanging table (nil when it is empty), x and acc at slot 0. It
// returns n, the number of elements it did.
//
//go:noescape
func levelRun3(rows *[8]int32, kern *fem.SymKernel, kidx *int32, eta *float64, hang *mesh.Hang, x, acc *float64, n int) int

// The layout levelRun3 reads; TestLevelKernelLayout fails when it
// changes, and so does applyElems3 on an AVX2 CPU.
const (
	asmKernSize = 288
	asmRowSize  = 32
	asmHangSize = 20
	asmHangN    = 0
	asmHangSlot = 4
)

// applyElems3 runs applyRange3 over every element: on AVX2 CPUs in one
// levelRun3 call, elements with a hanging corner included.
func (lv *level) applyElems3(x, acc []float64) {
	rows := lv.mesh.Rows
	if !fem.HasAVX2() {
		lv.applyRange3(x, acc, 0, len(rows))
		return
	}
	var h mesh.Hang
	if unsafe.Sizeof(fem.SymKernel{}) != asmKernSize || unsafe.Sizeof(rows[0]) != asmRowSize ||
		unsafe.Sizeof(h) != asmHangSize || unsafe.Offsetof(h.N) != asmHangN || unsafe.Offsetof(h.Slot) != asmHangSlot {
		panic("gmg: the level kernel layout changed: run go generate ./internal/gmg")
	}
	lv.applyVec3(x, acc)
}

// applyVec3 is applyElems3 on an AVX2 CPU.
func (lv *level) applyVec3(x, acc []float64) {
	if rows := lv.mesh.Rows; len(rows) > 0 {
		levelRun3(&rows[0], &lv.kern[0], &lv.kidx[0], &lv.eta[0], unsafe.SliceData(lv.mesh.Hang), &x[0], &acc[0], len(rows))
	}
}
