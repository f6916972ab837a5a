//go:build ignore

// gen_lanes writes the AVX2 gather and scatter of the four-lane Q1
// element loop (lanes_amd64.s, with their declarations in
// lanes_amd64.go and the portable stubs in lanes_other.go). Run it with
// `go generate ./internal/matfree`.
//
// gather4 fills fem.Lanes4 with four consecutive elements' 32 corner
// dofs, lane l from element l, as gatherElem does per element: for each
// corner it points at the four elements' 4-dof blocks (an independent
// corner's slot in src; a hanging corner's masters summed on the stack)
// and transposes the 4x4 block into the corner's four dof rows of the
// lanes. scatter4 is the transpose: it transposes each corner's four dof
// rows of ye in place into four element blocks, then adds lane 0's
// corners 0..7 into dst, then lane 1's, and so on, as scatterElem does
// element after element, so every accumulation keeps its order
// (neighbouring lanes share slots). Hanging corners follow the rule of
// package lanes. The only arithmetic is the Go code's: VMULPD and
// VADDPD, never fused.
package main

import (
	"fmt"
	"unsafe"

	"rhea/internal/fem"
	"rhea/tools/lanes"
)

var (
	g = lanes.New("gen_lanes.go")
	p = g.P
	w = g.I
)

// The four registers that point at lane 0..3's block of one corner.
var lanePtr = [4]string{"AX", "BX", "CX", "R9"}

// The hanging-corner walk's registers; a master's slot scales by 32.
var hang = lanes.Hang{Table: "R8", Weights: "R12", Entry: "R10", N: "R11", Scale: "SHLQ $5, %s"}

func main() {
	g.Asm()
	g.Weights("lanew<>")

	p("// func gather4(rows *[4][8]int32, hang *mesh.Hang, src *float64, xe *fem.Lanes4)")
	p("TEXT ·gather4(SB), NOSPLIT, $128-32")
	w("MOVQ rows+0(FP), SI")
	w("MOVQ hang+8(FP), R8")
	w("MOVQ src+16(FP), DI")
	w("MOVQ xe+24(FP), DX")
	w("LEAQ lanew<>(SB), R12")
	for a := 0; a < 8; a++ {
		p("\t// Corner %d: point at each lane's four dofs.", a)
		for l, reg := range lanePtr {
			w("MOVLQSX %d(SI), %s", lanes.RowSize*l+4*a, reg)
			w("TESTQ %s, %s", reg, reg)
			w("JLT gh%d_%d", a, l)
			w("SHLQ $5, %s", reg)
			w("ADDQ DI, %s", reg)
			w("JMP gd%d_%d", a, l)
			p("gh%d_%d:", a, l)
			p("\t// A hanging corner: its masters' dofs at weight w, summed from zero")
			p("\t// onto the stack.")
			g.HangEntry(hang, reg, "Y9")
			w("VXORPD Y8, Y8, Y8")
			g.Masters(hang, "R13", fmt.Sprintf("gs%d_%d", a, l), func() {
				w("VMULPD (DI)(R13*1), Y9, Y10")
				w("VADDPD Y10, Y8, Y8")
			})
			p("gs%d_%d:", a, l)
			w("VMOVUPD Y8, %d(SP)", 32*l)
			w("LEAQ %d(SP), %s", 32*l, reg)
			p("gd%d_%d:", a, l)
		}
		p("\t// Transpose: dof row c of the corner holds dof c of lanes 0..3.")
		var src, dst [4]lanes.Mem
		for l, reg := range lanePtr {
			src[l], dst[l] = lanes.Mem{Base: reg}, lanes.Mem{Off: 32 * (4*a + l), Base: "DX"}
		}
		g.Transpose(src, dst)
	}
	w("VZEROUPPER")
	w("RET")
	p("")

	p("// func scatter4(rows *[4][8]int32, hang *mesh.Hang, ye *fem.Lanes4, dst *float64)")
	p("TEXT ·scatter4(SB), NOSPLIT, $0-32")
	w("MOVQ rows+0(FP), SI")
	w("MOVQ hang+8(FP), R8")
	w("MOVQ ye+16(FP), DX")
	w("MOVQ dst+24(FP), DI")
	w("LEAQ lanew<>(SB), R12")
	for a := 0; a < 8; a++ {
		p("\t// Corner %d: transpose its dof rows in place into lanes 0..3's blocks.", a)
		var rows [4]lanes.Mem
		for c := range rows {
			rows[c] = lanes.Mem{Off: 32 * (4*a + c), Base: "DX"}
		}
		g.Transpose(rows, rows)
	}
	for l := 0; l < 4; l++ {
		for a := 0; a < 8; a++ {
			y := fmt.Sprintf("%d(DX)", 32*(4*a+l))
			p("\t// Lane %d, corner %d.", l, a)
			w("MOVLQSX %d(SI), AX", lanes.RowSize*l+4*a)
			w("TESTQ AX, AX")
			w("JLT sh%d_%d", l, a)
			w("SHLQ $5, AX")
			w("VMOVUPD (DI)(AX*1), Y0")
			w("VADDPD %s, Y0, Y0", y)
			w("VMOVUPD Y0, (DI)(AX*1)")
			w("JMP sd%d_%d", l, a)
			p("sh%d_%d:", l, a)
			p("\t// A hanging corner: w times its dofs added into each master.")
			g.HangEntry(hang, "AX", "Y1")
			w("VMULPD %s, Y1, Y1", y)
			g.Masters(hang, "AX", fmt.Sprintf("sd%d_%d", l, a), func() {
				w("VMOVUPD (DI)(AX*1), Y0")
				w("VADDPD Y1, Y0, Y0")
				w("VMOVUPD Y0, (DI)(AX*1)")
			})
			p("sd%d_%d:", l, a)
		}
	}
	w("VZEROUPPER")
	w("RET")
	g.Save("lanes_amd64.s")

	g.Go("", "matfree", `"unsafe"`, "", `"rhea/internal/fem"`, `"rhea/internal/mesh"`)
	p(`// gather4 is gatherElem for the four elements whose corner rows are
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
	asmRowSize   = %d
	asmHangSize  = %d
	asmHangN     = %d
	asmHangSlot  = %d
	asmLanesSize = %d
)

// checkLanesLayout panics unless the compiled layout is the one gather4
// and scatter4 were generated for.
func checkLanesLayout() {
	var h mesh.Hang
	if unsafe.Sizeof(mesh.Mesh{}.Rows[0]) != asmRowSize || unsafe.Sizeof(h) != asmHangSize ||
		unsafe.Offsetof(h.N) != asmHangN || unsafe.Offsetof(h.Slot) != asmHangSlot || unsafe.Sizeof(fem.Lanes4{}) != asmLanesSize {
		panic("matfree: the lanes' gather/scatter layout changed: run go generate ./internal/matfree")
	}
}`, lanes.RowSize, lanes.HangSize, lanes.HangN, lanes.HangSlot, unsafe.Sizeof(fem.Lanes4{}))
	g.Save("lanes_amd64.go")

	g.Go("!amd64", "matfree", `"rhea/internal/fem"`, `"rhea/internal/mesh"`)
	p(`// gather4 and scatter4 are AVX2 assembly, which this architecture does
// not have: New picks them only where fem.HasAVX2, never here.
func gather4(rows *[4][8]int32, hang *mesh.Hang, src *float64, xe *fem.Lanes4) {
	panic("matfree: gather4 needs AVX2")
}

func scatter4(rows *[4][8]int32, hang *mesh.Hang, ye *fem.Lanes4, dst *float64) {
	panic("matfree: scatter4 needs AVX2")
}

// checkLanesLayout has no assembly to check on this architecture.
func checkLanesLayout() {}`)
	g.Save("lanes_other.go")
}
