//go:build ignore

// gen_lanes writes the AVX2 gather and scatter of the four-lane Q1
// element loop (lanes_amd64.s, with their declarations in
// lanes_amd64.go and the portable stubs in lanes_other.go). Run it with
// `go generate ./internal/matfree`.
//
// gather4 fills fem.Lanes4 with four consecutive elements' 32 corner
// dofs, lane l from element l, as gatherElem does per element: for each
// corner it points at the four elements' 4-dof blocks (an independent
// corner's slot in src; a hanging corner's masters summed from zero in
// master order at weight 1/N, kept on the stack) and transposes the 4x4
// block into the corner's four dof rows of the lanes. scatter4 is the
// transpose: it transposes each corner's four dof rows of ye in place
// into four element blocks, then adds lane 0's corners 0..7 into dst,
// then lane 1's, and so on, as scatterElem does element after element,
// so every accumulation keeps its order (neighbouring lanes share
// slots). A hanging corner adds w*y into each master in master order.
// The only arithmetic is the Go code's: VMULPD and VADDPD, never fused.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math"
	"os"
	"unsafe"

	"rhea/internal/fem"
	"rhea/internal/mesh"
)

var buf bytes.Buffer

func p(format string, args ...any) { fmt.Fprintf(&buf, format+"\n", args...) }

func w(format string, args ...any) { p("\t"+format, args...) }

// The layout the assembly bakes in, read from the compiled packages.
var (
	rowSize   = int(unsafe.Sizeof(mesh.Mesh{}.Rows[0]))
	hangSize  = int(unsafe.Sizeof(mesh.Hang{}))
	hangN     = int(unsafe.Offsetof(mesh.Hang{}.N))
	hangSlot  = int(unsafe.Offsetof(mesh.Hang{}.Slot))
	maxN      = len(mesh.Hang{}.Slot)
	lanesSize = int(unsafe.Sizeof(fem.Lanes4{}))
)

// The four registers that point at lane 0..3's block of one corner.
var lanePtr = [4]string{"AX", "BX", "CX", "R9"}

func write(name string, code []byte) {
	if err := os.WriteFile(name, code, 0o644); err != nil {
		log.Fatal(err)
	}
}

func gofmt(code []byte) []byte {
	src, err := format.Source(code)
	if err != nil {
		log.Fatalf("formatting generated code: %v\n%s", err, code)
	}
	return src
}

// hangEntry points R10 at the hanging-table entry ^reg (R8: the table),
// puts its N in R11 and broadcasts its weight into y (R12: the weights).
func hangEntry(reg, y string) {
	w("NOTQ %s", reg)
	w("IMUL3Q $%d, %s, R10", hangSize, reg)
	w("ADDQ R8, R10")
	w("MOVLQSX %d(R10), R11", hangN)
	w("VBROADCASTSD (R12)(R11*8), %s", y)
}

// masters emits body once per master k of the entry at R10, in order,
// stopping after the N-th at label end; reg holds 32 * the master's slot.
func masters(reg, end string, body func()) {
	for k := 0; k < maxN; k++ {
		w("CMPQ R11, $%d", k+1)
		w("JLT %s", end)
		w("MOVLQSX %d(R10), %s", hangSlot+4*k, reg)
		w("SHLQ $5, %s", reg)
		body()
	}
}

func main() {
	p("// Code generated by gen_lanes.go; DO NOT EDIT.")
	p("")
	p("#include \"textflag.h\"")
	p("")
	p("// The weight of each master of a hanging corner with N masters,")
	p("// mesh.Hang.W, at N*8 (N = 0 has no masters and reads none).")
	for n := 0; n <= maxN; n++ {
		var v float64
		if n > 0 {
			v = (&mesh.Hang{N: int32(n)}).W()
		}
		p("DATA lanew<>+%d(SB)/8, $0x%016x", 8*n, math.Float64bits(v))
	}
	p("GLOBL lanew<>(SB), RODATA|NOPTR, $%d", 8*(maxN+1))
	p("")

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
			w("MOVLQSX %d(SI), %s", rowSize*l+4*a, reg)
			w("TESTQ %s, %s", reg, reg)
			w("JLT gh%d_%d", a, l)
			w("SHLQ $5, %s", reg)
			w("ADDQ DI, %s", reg)
			w("JMP gd%d_%d", a, l)
			p("gh%d_%d:", a, l)
			p("\t// A hanging corner: its masters' dofs at weight w, summed from zero")
			p("\t// onto the stack.")
			hangEntry(reg, "Y9")
			w("VXORPD Y8, Y8, Y8")
			masters("R13", fmt.Sprintf("gs%d_%d", a, l), func() {
				w("VMULPD (DI)(R13*1), Y9, Y10")
				w("VADDPD Y10, Y8, Y8")
			})
			p("gs%d_%d:", a, l)
			w("VMOVUPD Y8, %d(SP)", 32*l)
			w("LEAQ %d(SP), %s", 32*l, reg)
			p("gd%d_%d:", a, l)
		}
		p("\t// Transpose: dof row c of the corner holds dof c of lanes 0..3.")
		lo := [4]string{"X0", "X1", "X2", "X3"}
		for i, half := range [2]int{0, 16} {
			w("VMOVUPD %d(AX), %s", half, lo[2*i])
			w("VINSERTF128 $1, %d(CX), Y%d, Y%d", half, 2*i, 2*i)
			w("VMOVUPD %d(BX), %s", half, lo[2*i+1])
			w("VINSERTF128 $1, %d(R9), Y%d, Y%d", half, 2*i+1, 2*i+1)
		}
		w("VUNPCKLPD Y1, Y0, Y4")
		w("VUNPCKHPD Y1, Y0, Y5")
		w("VUNPCKLPD Y3, Y2, Y6")
		w("VUNPCKHPD Y3, Y2, Y7")
		for c := 0; c < 4; c++ {
			w("VMOVUPD Y%d, %d(DX)", 4+c, 32*(4*a+c))
		}
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
		base := 32 * 4 * a
		for i, half := range [2]int{0, 16} {
			w("VMOVUPD %d(DX), X%d", base+half, 2*i)
			w("VINSERTF128 $1, %d(DX), Y%d, Y%d", base+64+half, 2*i, 2*i)
			w("VMOVUPD %d(DX), X%d", base+32+half, 2*i+1)
			w("VINSERTF128 $1, %d(DX), Y%d, Y%d", base+96+half, 2*i+1, 2*i+1)
		}
		w("VUNPCKLPD Y1, Y0, Y4")
		w("VUNPCKHPD Y1, Y0, Y5")
		w("VUNPCKLPD Y3, Y2, Y6")
		w("VUNPCKHPD Y3, Y2, Y7")
		for l := 0; l < 4; l++ {
			w("VMOVUPD Y%d, %d(DX)", 4+l, base+32*l)
		}
	}
	for l := 0; l < 4; l++ {
		for a := 0; a < 8; a++ {
			y := fmt.Sprintf("%d(DX)", 32*(4*a+l))
			p("\t// Lane %d, corner %d.", l, a)
			w("MOVLQSX %d(SI), AX", rowSize*l+4*a)
			w("TESTQ AX, AX")
			w("JLT sh%d_%d", l, a)
			w("SHLQ $5, AX")
			w("VMOVUPD (DI)(AX*1), Y0")
			w("VADDPD %s, Y0, Y0", y)
			w("VMOVUPD Y0, (DI)(AX*1)")
			w("JMP sd%d_%d", l, a)
			p("sh%d_%d:", l, a)
			p("\t// A hanging corner: w times its dofs added into each master.")
			hangEntry("AX", "Y1")
			w("VMULPD %s, Y1, Y1", y)
			masters("AX", fmt.Sprintf("sd%d_%d", l, a), func() {
				w("VMOVUPD (DI)(AX*1), Y0")
				w("VADDPD Y1, Y0, Y0")
				w("VMOVUPD Y0, (DI)(AX*1)")
			})
			p("sd%d_%d:", l, a)
		}
	}
	w("VZEROUPPER")
	w("RET")
	write("lanes_amd64.s", buf.Bytes())

	buf.Reset()
	p("// Code generated by gen_lanes.go; DO NOT EDIT.")
	p("")
	p("package matfree")
	p("")
	p("import (")
	p(`"unsafe"`)
	p("")
	p(`"rhea/internal/fem"`)
	p(`"rhea/internal/mesh"`)
	p(")")
	p("")
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
}`, rowSize, hangSize, hangN, hangSlot, lanesSize)
	write("lanes_amd64.go", gofmt(buf.Bytes()))

	buf.Reset()
	p("// Code generated by gen_lanes.go; DO NOT EDIT.")
	p("")
	p("//go:build !amd64")
	p("")
	p("package matfree")
	p("")
	p("import (")
	p(`"rhea/internal/fem"`)
	p(`"rhea/internal/mesh"`)
	p(")")
	p("")
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
	write("lanes_other.go", gofmt(buf.Bytes()))
}
