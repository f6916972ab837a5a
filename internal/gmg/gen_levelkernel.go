//go:build ignore

// gen_levelkernel writes levelkernel.go, the element loops of the
// multigrid level operator at one and three fields per node, and the
// AVX2 form of the three-field loop (levelkernel_amd64.s, with its
// declaration and dispatch in levelkernel_amd64.go and the portable
// dispatch in levelkernel_other.go). Run it with `go generate
// ./internal/gmg`.
//
// A level kernel is a symmetric 8x8 matrix kept as its packed upper
// triangle (fem.SymKernel), so entry (a, b) sits at an offset that is not
// an affine function of a and b. The loops are written out row after row
// with those offsets as constants, each row scattered as soon as it is
// summed; collecting the eight rows first and scattering them in a second
// loop ran 10-15% slower at width 3. Each row still sums b = 0..7 in
// ascending order from zero, so the result is bit for bit the full
// matrix's.
//
// The AVX2 loop puts a corner's three fields in one register (lane 3
// unused: loaded under a mask, never stored) and does each row of the
// Go loop once for all three: zero, then eight times broadcast K(a, b),
// VMULPD, VADDPD in corner order, then the product with eta, the same
// operations as the Go loop's per field, never fused into an FMA. It
// runs every element in order, so every accumulation keeps its order.
// An element without a hanging corner runs straight-line code; one with
// a hanging corner runs a second copy that branches per corner: a
// hanging corner sums its masters from zero in master order at weight
// 1/N (read from a table of 1/1..1/4), and its row adds w*s into each
// master in master order, as the Go loop's scatterHang3 does.
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

// off returns the packed offset of entry (a, b), as fem.SymIndex has it.
func off(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return 8*a - a*(a-1)/2 + b - a
}

func main() {
	p("// Code generated by gen_levelkernel.go; DO NOT EDIT.")
	p("")
	p("package gmg")
	p("")
	p(`// applyElems1 accumulates acc += sum_e C_e^T (eta_e K_e) C_e x for one
// field in slot space: gather the eight corner values, multiply by the
// scaled kernel, scatter. An independent corner reads its slot straight
// from the mesh's corner row (C_e selects it: weight exactly 1, so
// skipping the multiply changes no bit); a hanging one runs its masters
// from the mesh's Hang table. Row a of K times xe is summed from zero in
// corner order, reading the packed triangle at fixed offsets, scaled by
// eta and scattered.`)
	p("func (lv *level) applyElems1(x, acc []float64) {")
	p("rows, hang := lv.mesh.Rows, lv.mesh.Hang")
	p("for ei := range rows {")
	p("row := &rows[ei]")
	p("var xe [8]float64")
	p("for a := 0; a < 8; a++ {")
	p("if s := row[a]; s >= 0 {")
	p("xe[a] = x[s]")
	p("} else {")
	p("xe[a] = hang[^s].Value(x)")
	p("}")
	p("}")
	p("K, eta := &lv.kern[lv.kidx[ei]], lv.eta[ei]")
	for a := 0; a < 8; a++ {
		p("{")
		p("var s float64")
		for b := 0; b < 8; b++ {
			p("s += K[%d] * xe[%d]", off(a, b), b)
		}
		p("s *= eta")
		p("if r := row[%d]; r >= 0 {", a)
		p("acc[r] += s")
		p("} else {")
		p("scatterHang1(acc, &hang[^r], s)")
		p("}")
		p("}")
	}
	p("}")
	p("}")
	p("")
	p(`// applyRange3 is applyElems1 for three interleaved fields, over the
// elements [lo, hi): every corner gathers three values and every kernel
// entry multiplies all three, so the corner rows and kernels are
// streamed once for the whole velocity block. Per field it is the same
// sum as applyElems1's, in the same order.`)
	p("func (lv *level) applyRange3(x, acc []float64, lo, hi int) {")
	p("rows, hang := lv.mesh.Rows, lv.mesh.Hang")
	p("for ei := lo; ei < hi; ei++ {")
	p("row := &rows[ei]")
	p("var xe [8][3]float64")
	p("for a := 0; a < 8; a++ {")
	p("if s := row[a]; s >= 0 {")
	p("p := x[3*int(s) : 3*int(s)+3]")
	p("xe[a] = [3]float64{p[0], p[1], p[2]}")
	p("continue")
	p("}")
	p("h := &hang[^row[a]]")
	p("w := h.W()")
	p("var v0, v1, v2 float64")
	p("for k := 0; k < int(h.N); k++ {")
	p("p := x[3*int(h.Slot[k]) : 3*int(h.Slot[k])+3]")
	p("v0 += w * p[0]")
	p("v1 += w * p[1]")
	p("v2 += w * p[2]")
	p("}")
	p("xe[a] = [3]float64{v0, v1, v2}")
	p("}")
	p("K, eta := &lv.kern[lv.kidx[ei]], lv.eta[ei]")
	for a := 0; a < 8; a++ {
		p("{")
		p("var s0, s1, s2, k float64")
		for b := 0; b < 8; b++ {
			p("k = K[%d]", off(a, b))
			for c := 0; c < 3; c++ {
				p("s%d += k * xe[%d][%d]", c, b, c)
			}
		}
		p("s0 *= eta")
		p("s1 *= eta")
		p("s2 *= eta")
		p("if r := row[%d]; r >= 0 {", a)
		p("p := acc[3*int(r) : 3*int(r)+3]")
		p("p[0] += s0")
		p("p[1] += s1")
		p("p[2] += s2")
		p("} else {")
		p("scatterHang3(acc, &hang[^r], s0, s1, s2)")
		p("}")
		p("}")
	}
	p("}")
	p("}")

	src, err := format.Source(buf.Bytes())
	if err != nil {
		log.Fatalf("formatting generated code: %v\n%s", err, buf.Bytes())
	}
	if err := os.WriteFile("levelkernel.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
	genAsm()
}

// The layout the AVX2 loop bakes in, read from the compiled packages.
var (
	kernSize = int(unsafe.Sizeof(fem.SymKernel{}))
	rowSize  = int(unsafe.Sizeof(mesh.Mesh{}.Rows[0]))
	hangSize = int(unsafe.Sizeof(mesh.Hang{}))
	hangN    = int(unsafe.Offsetof(mesh.Hang{}.N))
	hangSlot = int(unsafe.Offsetof(mesh.Hang{}.Slot))
	maxN     = len(mesh.Hang{}.Slot)
)

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

func genAsm() {
	buf.Reset()
	w := func(format string, args ...any) { p("\t"+format, args...) }
	p("// Code generated by gen_levelkernel.go; DO NOT EDIT.")
	p("")
	p("#include \"textflag.h\"")
	p("")
	p("// Lanes 0..2 of a corner's register: its three fields.")
	for l := 0; l < 4; l++ {
		v := "0xffffffffffffffff"
		if l == 3 {
			v = "0"
		}
		p("DATA levelmask3<>+%d(SB)/8, $%s", 8*l, v)
	}
	p("GLOBL levelmask3<>(SB), RODATA|NOPTR, $32")
	p("")
	p("// The weight of each master of a hanging corner with N masters,")
	p("// mesh.Hang.W, at N*8 (N = 0 has no masters and reads none).")
	for n := 0; n <= maxN; n++ {
		var v float64
		if n > 0 {
			v = (&mesh.Hang{N: int32(n)}).W()
		}
		p("DATA levelw<>+%d(SB)/8, $0x%016x", 8*n, math.Float64bits(v))
	}
	p("GLOBL levelw<>(SB), RODATA|NOPTR, $%d", 8*(maxN+1))
	p("")
	p("// func levelRun3(rows *[8]int32, kern *fem.SymKernel, kidx *int32, eta *float64, hang *mesh.Hang, x, acc *float64, n int) int")
	p("TEXT ·levelRun3(SB), NOSPLIT, $0-72")
	w("MOVQ rows+0(FP), SI")
	w("MOVQ kern+8(FP), R8")
	w("MOVQ kidx+16(FP), R9")
	w("MOVQ eta+24(FP), R10")
	w("MOVQ hang+32(FP), R12")
	w("MOVQ x+40(FP), DI")
	w("MOVQ acc+48(FP), DX")
	w("MOVQ n+56(FP), CX")
	w("XORQ AX, AX")
	w("VMOVDQU levelmask3<>(SB), Y15")
	// element emits one element's body; with hanging set, every corner
	// and row branches on the sign of its row entry.
	element := func(hanging bool) {
		w("MOVLQSX (R9)(AX*4), BX")
		w("IMUL3Q $%d, BX, BX", kernSize)
		w("ADDQ R8, BX")
		w("VBROADCASTSD (R10)(AX*8), Y13")
		if hanging {
			p("\t// R9: the weight table; R12: the hanging table; R13: one entry of it.")
			w("LEAQ levelw<>(SB), R9")
		}
		// hangEntry points R13 at the entry ^R11 of the hanging table,
		// puts its N in R10 and broadcasts its weight into Y9.
		hangEntry := func() {
			w("NOTQ R11")
			w("IMUL3Q $%d, R11, R13", hangSize)
			w("ADDQ R12, R13")
			w("MOVLQSX %d(R13), R10", hangN)
			w("VBROADCASTSD (R9)(R10*8), Y9")
		}
		// masters emits body once per master k, in order, stopping after
		// the N-th at label end; R11 holds 3 * the master's slot.
		masters := func(end string, body func()) {
			for k := 0; k < maxN; k++ {
				w("CMPQ R10, $%d", k+1)
				w("JLT %s", end)
				w("MOVLQSX %d(R13), R11", hangSlot+4*k)
				w("LEAQ (R11)(R11*2), R11")
				body()
			}
		}
		p("\t// Y0..Y7: the three fields of corners 0..7.")
		for b := 0; b < 8; b++ {
			w("MOVLQSX %d(SI), R11", 4*b)
			if hanging {
				w("TESTQ R11, R11")
				w("JLT gh%d", b)
			}
			w("LEAQ (R11)(R11*2), R11")
			w("VMASKMOVPD (DI)(R11*8), Y15, Y%d", b)
			if hanging {
				w("JMP gd%d", b)
				p("gh%d:", b)
				p("\t// A hanging corner: its masters' fields at weight w, summed from zero.")
				hangEntry()
				w("VXORPD Y%d, Y%d, Y%d", b, b, b)
				masters(fmt.Sprintf("gd%d", b), func() {
					w("VMASKMOVPD (DI)(R11*8), Y15, Y10")
					w("VMULPD Y10, Y9, Y10")
					w("VADDPD Y10, Y%d, Y%d", b, b)
				})
				p("gd%d:", b)
			}
		}
		for a := 0; a < 8; a++ {
			p("\t// Row %d, scaled by eta and added to the corner's three values.", a)
			w("VXORPD Y8, Y8, Y8")
			for b := 0; b < 8; b++ {
				w("VBROADCASTSD %d(BX), Y9", 8*off(a, b))
				w("VMULPD Y%d, Y9, Y9", b)
				w("VADDPD Y9, Y8, Y8")
			}
			w("VMULPD Y13, Y8, Y8")
			w("MOVLQSX %d(SI), R11", 4*a)
			if hanging {
				w("TESTQ R11, R11")
				w("JLT sh%d", a)
			}
			w("LEAQ (R11)(R11*2), R11")
			w("VMOVUPD (DX)(R11*8), X10")
			w("VADDPD X8, X10, X10")
			w("VMOVUPD X10, (DX)(R11*8)")
			w("VEXTRACTF128 $1, Y8, X11")
			w("VADDSD 16(DX)(R11*8), X11, X11")
			w("VMOVSD X11, 16(DX)(R11*8)")
			if hanging {
				w("JMP sd%d", a)
				p("sh%d:", a)
				p("\t// A hanging corner: w times the row added into each master.")
				hangEntry()
				w("VMULPD Y8, Y9, Y9")
				w("VEXTRACTF128 $1, Y9, X11")
				masters(fmt.Sprintf("sd%d", a), func() {
					w("VMOVUPD (DX)(R11*8), X10")
					w("VADDPD X9, X10, X10")
					w("VMOVUPD X10, (DX)(R11*8)")
					w("VADDSD 16(DX)(R11*8), X11, X12")
					w("VMOVSD X12, 16(DX)(R11*8)")
				})
				p("sd%d:", a)
			}
		}
		if hanging {
			w("MOVQ kidx+16(FP), R9")
			w("MOVQ eta+24(FP), R10")
		}
		w("ADDQ $%d, SI", rowSize)
		w("INCQ AX")
		w("JMP loop")
	}
	p("loop:")
	w("CMPQ AX, CX")
	w("JGE done")
	p("\t// An element with a hanging corner (a negative row entry) runs the")
	p("\t// branching copy.")
	w("VMOVDQU (SI), Y14")
	w("VMOVMSKPS Y14, BX")
	w("TESTL BX, BX")
	w("JNE hanging")
	element(false)
	p("hanging:")
	element(true)
	p("done:")
	w("MOVQ AX, ret+64(FP)")
	w("VZEROUPPER")
	w("RET")
	write("levelkernel_amd64.s", buf.Bytes())

	buf.Reset()
	p("// Code generated by gen_levelkernel.go; DO NOT EDIT.")
	p("")
	p("package gmg")
	p("")
	p("import (")
	p(`"unsafe"`)
	p("")
	p(`"rhea/internal/fem"`)
	p(`"rhea/internal/mesh"`)
	p(")")
	p("")
	p(`// levelRun3 is applyRange3 in AVX2 over the n elements from rows[0] on
// (levelkernel_amd64.s), hanging corners included: kidx and eta point at
// those elements' entries, kern at the level's first kernel, hang at the
// mesh's hanging table (nil when it is empty), x and acc at slot 0. It
// returns n, the number of elements it did.
//
//go:noescape
func levelRun3(rows *[8]int32, kern *fem.SymKernel, kidx *int32, eta *float64, hang *mesh.Hang, x, acc *float64, n int) int`)
	p("")
	p(`// The layout levelRun3 reads; TestLevelKernelLayout fails when it
// changes, and so does applyElems3 on an AVX2 CPU.
const (
	asmKernSize = %d
	asmRowSize  = %d
	asmHangSize = %d
	asmHangN    = %d
	asmHangSlot = %d
)`, kernSize, rowSize, hangSize, hangN, hangSlot)
	p("")
	p(`// applyElems3 runs applyRange3 over every element: on AVX2 CPUs in one
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
}`)
	write("levelkernel_amd64.go", gofmt(buf.Bytes()))

	buf.Reset()
	p("// Code generated by gen_levelkernel.go; DO NOT EDIT.")
	p("")
	p("//go:build !amd64")
	p("")
	p("package gmg")
	p("")
	p("// applyElems3 runs applyRange3 over every element.")
	p("func (lv *level) applyElems3(x, acc []float64) { lv.applyRange3(x, acc, 0, len(lv.mesh.Rows)) }")
	write("levelkernel_other.go", gofmt(buf.Bytes()))
}
