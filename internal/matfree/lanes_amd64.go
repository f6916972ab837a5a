// Code generated by gen_lanes.go; DO NOT EDIT.

package matfree

import (
	"unsafe"

	"rhea/internal/fem"
	"rhea/internal/mesh"
)

// gather4 is gatherElem for the four elements whose corner rows are
// *rows, element l into lane l of xe (lanes_amd64.s): hang is the mesh's
// hanging table (nil when it is empty), src slot 0 of the slot-space
// buffer. The CPU must have AVX2.
//
//go:noescape
func gather4(rows *[4][8]int32, hang *mesh.Hang, src *float64, xe *fem.Lanes4)

// scatter4 is scatterElem for the four elements whose corner rows are
// *rows, lane l of ye for element l, the elements one after the other
// (lanes_amd64.s). It leaves ye transposed: ye is the caller's scratch.
// The CPU must have AVX2.
//
//go:noescape
func scatter4(rows *[4][8]int32, hang *mesh.Hang, ye *fem.Lanes4, dst *float64)

// The layout gather4 and scatter4 read; TestLanesAsmLayout fails when it
// changes, and so does New on an AVX2 CPU.
const (
	asmRowSize   = 32
	asmHangSize  = 20
	asmHangN     = 0
	asmHangSlot  = 4
	asmLanesSize = 1024
)

// checkLanesLayout panics unless the compiled layout is the one gather4
// and scatter4 were generated for.
func checkLanesLayout() {
	var h mesh.Hang
	if unsafe.Sizeof(mesh.Mesh{}.Rows[0]) != asmRowSize || unsafe.Sizeof(h) != asmHangSize ||
		unsafe.Offsetof(h.N) != asmHangN || unsafe.Offsetof(h.Slot) != asmHangSlot || unsafe.Sizeof(fem.Lanes4{}) != asmLanesSize {
		panic("matfree: the lanes' gather/scatter layout changed: run go generate ./internal/matfree")
	}
}
